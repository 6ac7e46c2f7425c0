"""Box encoding, the quadratic scorer, sample-based training and refinement."""

import math
import tracemalloc

import numpy as np
import pytest

from _oracles import fd_gradient, refine_box_reference, train_box_scorer_reference
from prtrack import bbox
from prtrack.bbox import (
    QuadraticScorer,
    RefConfig,
    SGDConfig,
    box_encode,
    refine_box,
    train_box_scorer,
)
from prtrack.errors import DimensionError, DomainError
from prtrack.labels import (
    MixtureProposal,
    gaussian_density,
    gaussian_normalizer,
    iou_xywh,
    proposal_density,
    proposal_sample,
)
from prtrack.losses import LOSS_MODELS, kl_mc_loss
from prtrack.tracker import TrackerConfig, init_scorers

PAPER_PROPOSAL = MixtureProposal([0.5, 0.5], [0.05, 0.5], 4)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_encode_analytic_example():
    np.testing.assert_allclose(box_encode(4.0, 8.0), [0.0, 0.0, 1.3862944, 2.0794415], atol=1e-7)


def test_encode_reference_box():
    # A box encoded against itself: zero center offsets, its log sizes.
    assert box_encode(4.0, 8.0) == [0.0, 0.0, math.log(4.0), math.log(8.0)]


def test_encode_decode_round_trip():
    # track_step decodes the log sizes with exp; the round trip keeps the size.
    rng = np.random.Generator(np.random.PCG64(40))
    for _ in range(50):
        w, h = rng.uniform(0.2, 20), rng.uniform(0.2, 20)
        _, _, log_w, log_h = box_encode(w, h)
        np.testing.assert_allclose((math.exp(log_w), math.exp(log_h)), (w, h), rtol=1e-12, atol=1e-12)


def test_encode_rejects_bad_sizes():
    for w, h in ((-1.0, 2.0), (1.0, 0.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(DomainError):
            box_encode(w, h)


# ---------------------------------------------------------------------------
# scorer gradients
# ---------------------------------------------------------------------------


def _fd_matches(f, x, grad, rel=1e-6):
    fd = fd_gradient(f, x, eps=1e-6)
    scale = max(1.0, float(np.abs(fd).max()))
    assert float(np.abs(fd - grad).max()) <= rel * scale


def test_quadratic_grad_box_matches_fd():
    # refine_box steps along the score's closed-form gradient in the box.
    rng = np.random.Generator(np.random.PCG64(41))
    scorer = QuadraticScorer(rng.normal(0.0, 1.0, 4), tau=0.3)
    y = rng.normal(0.0, 1.0, 4)
    _fd_matches(lambda y: scorer.value_batch(y[None, :])[0], y, -(y - scorer.mu) / 0.3**2)


def test_quadratic_grad_params_matches_fd():
    # Training steps along the score's closed-form gradient in the center.
    rng = np.random.Generator(np.random.PCG64(42))
    mu0 = rng.normal(0.0, 1.0, 4)
    y = rng.normal(0.0, 1.0, 4)

    def f(mu):
        return QuadraticScorer(mu, tau=0.3).value_batch(y[None, :])[0]

    _fd_matches(f, mu0, (y - mu0) / 0.3**2)


def test_scorer_validation():
    with pytest.raises(DomainError):
        QuadraticScorer(np.zeros(4), tau=0.0)
    with pytest.raises(DimensionError):
        QuadraticScorer(np.zeros(3), tau=1.0)
    for tau in (1e200, 1e-200):
        with pytest.raises(DomainError, match="finite positive square"):
            QuadraticScorer(np.zeros(4), tau=tau)


@pytest.mark.parametrize("layout", ["C", "F", "stack"])
def test_numpy_sums_four_wide_rows_left_to_right(layout):
    # bbox._score (refine_box, the nll annotation term) adds its four squares
    # left to right, and the stacked scorers sum the (J, 4, K) difference
    # stack over its 4-long axis; both must equal value_batch's row sums bit
    # for bit.  That holds while NumPy reduces a 4-wide row term by term,
    # from the left, in C- and F-ordered stacks alike.
    rng = np.random.Generator(np.random.PCG64(59))
    x = rng.standard_normal((200_000, 4)) * 10.0 ** rng.integers(-8, 9, (200_000, 4))
    if layout == "stack":
        x = x.reshape(50, 4000, 4).transpose(0, 2, 1).copy()
    else:
        x = np.asarray(x, order=layout)
    got, cols = x.sum(axis=1), [x[:, i] for i in range(4)]
    assert np.array_equal(got, ((cols[0] + cols[1]) + cols[2]) + cols[3])
    # The data tells the orders apart: pairwise sums differ on many rows.
    assert not np.array_equal(got, (cols[0] + cols[1]) + (cols[2] + cols[3]))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _train_cell(jobs, proposal, samples, sgd, rng):
    """train_box_scorer on one cell: its (jobs, 4) trained centers, offsets from the annotation."""
    [centers] = train_box_scorer(jobs, [rng], proposal, samples, sgd)
    return centers


def test_duplicate_samples_collapse_to_single():
    a = kl_mc_loss([0.4, 0.4], [1.3, 1.3], [0.9, 0.9]).value
    b = kl_mc_loss([0.4], [1.3], [0.9]).value
    assert a == pytest.approx(b, abs=1e-14)


def test_train_quadratic_centers_on_annotation():
    # The divergence optimum of this family is the label mean, i.e. the
    # annotation itself, the origin of the target's frame; a grid-search
    # oracle on a frozen sample set agrees.
    rng = np.random.Generator(np.random.PCG64(45))
    sgd = SGDConfig(learning_rate=0.2, epochs=400, lr_decay=0.02)
    [mu] = _train_cell([("kl", 0.05, 0.2)], PAPER_PROPOSAL, 256, sgd, rng)
    assert float(np.abs(mu).max()) <= 1e-2

    # Frozen-sample axis scans: the sampled objective bottoms out at the
    # annotation to within one 0.01 grid step on every axis.
    oracle_rng = np.random.Generator(np.random.PCG64(46))
    ys = proposal_sample(PAPER_PROPOSAL, oracle_rng, size=4096)
    d2 = np.square(ys).sum(axis=1)
    p, qd = gaussian_density(d2, 0.05, 4), proposal_density(PAPER_PROPOSAL, d2)
    offsets = np.linspace(-0.05, 0.05, 11)
    for axis in range(4):
        losses = []
        for t in offsets:
            mu = np.zeros(4)
            mu[axis] += t
            s = -((ys - mu) ** 2).sum(axis=1) / (2.0 * 0.2**2)
            losses.append(kl_mc_loss(s, p, qd).value)
        best = offsets[int(np.argmin(losses))]
        assert abs(best) <= 0.011


def test_train_loss_drops_over_epochs():
    # The loss of the returned center, on one fixed set of draws, is lower
    # after 50 epochs than after 1.
    ys = proposal_sample(PAPER_PROPOSAL, np.random.Generator(np.random.PCG64(147)), size=4096)
    d2 = np.square(ys).sum(axis=1)
    p, qd = gaussian_density(d2, 0.05, 4), proposal_density(PAPER_PROPOSAL, d2)

    def run(epochs):
        rng = np.random.Generator(np.random.PCG64(47))
        sgd = SGDConfig(learning_rate=0.25, epochs=epochs, lr_decay=0.5)
        [mu] = _train_cell([("kl", 0.05, 0.2)], PAPER_PROPOSAL, 64, sgd, rng)
        return kl_mc_loss(QuadraticScorer(mu, tau=0.2).value_batch(ys), p, qd).value

    assert run(50) < run(1)


def test_sigma_to_zero_matches_delta_label_training():
    # With the narrow proposal component matched to sigma_bb the importance
    # ratios stay bounded, and the nearly-degenerate Gaussian label trains
    # to the same center as the exact delta-label objective.
    proposal = MixtureProposal([0.5, 0.5], [1e-4, 0.5], 4)
    sgd = SGDConfig(learning_rate=0.15, epochs=300, lr_decay=0.02)

    def fit(loss_model):
        rng = np.random.Generator(np.random.PCG64(48))
        [mu] = _train_cell([(loss_model, 1e-4, 0.2)], proposal, 128, sgd, rng)
        return mu

    mu_kl = fit("kl")
    mu_nll = fit("nll")
    assert float(np.abs(mu_kl - mu_nll).max()) < 1e-3


def test_train_squared_error_branch_lowers_its_loss():
    # The l2 branch regresses the confidence exp(s) onto each draw's overlap
    # with the annotation, the unit box in the target's frame.  On fixed
    # draws its trained center has a lower loss than its start on the
    # annotation, where the optimum is not: the overlap grows faster toward
    # larger boxes than toward smaller ones.
    ys = proposal_sample(PAPER_PROPOSAL, np.random.Generator(np.random.PCG64(149)), size=4096)
    overlaps = iou_xywh(np.column_stack([ys[:, :2], np.exp(ys[:, 2:])]), (0.0, 0.0, 1.0, 1.0))

    def loss(mu):
        r = np.exp(QuadraticScorer(mu, tau=0.5).value_batch(ys)) - overlaps
        return float(r @ r) / len(ys)

    rng = np.random.Generator(np.random.PCG64(49))
    [mu] = _train_cell([("l2", 0.05, 0.5)], PAPER_PROPOSAL, 64, SGDConfig(learning_rate=0.5, epochs=120), rng)
    assert loss(mu) < loss(np.zeros(4))


def test_train_validation():
    sgd = SGDConfig()
    rng = np.random.Generator(np.random.PCG64(50))
    with pytest.raises(DimensionError):
        train_box_scorer([("kl", 0.05, 0.2)], [], PAPER_PROPOSAL, 4, sgd)
    with pytest.raises(DimensionError):
        _train_cell([], PAPER_PROPOSAL, 4, sgd, rng)
    with pytest.raises(DomainError):
        _train_cell([("kl", 0.05, 0.2)], PAPER_PROPOSAL, 1, sgd, rng)
    with pytest.raises(DomainError):
        _train_cell([("kl", 0.0, 0.2)], PAPER_PROPOSAL, 4, sgd, rng)
    with pytest.raises(DomainError):
        _train_cell([("huber", 0.05, 0.2)], PAPER_PROPOSAL, 4, sgd, rng)
    for tau in (0.0, -0.2, 1e200):
        with pytest.raises(DomainError, match="finite positive square"):
            _train_cell([("kl", 0.05, tau)], PAPER_PROPOSAL, 4, sgd, rng)
    # One bad job rejects the whole call before anything is drawn.
    state = rng.bit_generator.state
    with pytest.raises(DomainError):
        _train_cell([("kl", 0.05, 0.2), ("l2", -1.0, 0.2)], PAPER_PROPOSAL, 4, sgd, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("loss_model", ["kl", "nll"])
def test_train_rejects_a_label_width_without_a_normalizer(loss_model):
    # sigma_bb = 1e-200 squares to 0, so its 4D normalizer is infinite; the
    # width is rejected before anything is drawn, for the nll rows too,
    # whose label density is never evaluated.
    rng = np.random.Generator(np.random.PCG64(59))
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="normalizer"):
        _train_cell([(loss_model, 1e-200, 0.2)], PAPER_PROPOSAL, 4, SGDConfig(), rng)
    assert rng.bit_generator.state == state


def test_train_rejects_a_final_center_that_overflows():
    # A first step of rate 1e308 throws the centers near the float limit,
    # where they stay put (their scores are -inf, so their confidences and
    # their gradient are 0), but their tail average overflows; the returned
    # centers are checked once.
    rng = np.random.Generator(np.random.PCG64(57))
    sgd = SGDConfig(learning_rate=1e308, epochs=400)
    with pytest.raises(DomainError, match="scorer center must contain only finite values"):
        _train_cell([("l2", 0.05, 1.0)], PAPER_PROPOSAL, 4, sgd, rng)


# The quadratic scorer is the only family; the family id keeps these tests'
# ids as the suite has listed them.
@pytest.mark.parametrize("family", ["quadratic"])
@pytest.mark.parametrize("loss_model", ["l2", "rl2", "nll", "kl"])
def test_train_matches_plain_reference_loop(family, loss_model):
    # Same draws in the same order, so the same iterates up to rounding and
    # the same generator state afterwards.  The package trains an offset in
    # the target's frame; the reference trains at the annotation itself.
    ann = np.array([3.0 / 4.0, 2.0 / 5.0, math.log(4.0), math.log(5.0)])  # (3, 2, 4, 5) against its size
    proposal = MixtureProposal([0.3, 0.7], [0.05, 0.4], 4)
    sgd = SGDConfig(learning_rate=0.25, epochs=30, lr_decay=0.5)
    rng_a = np.random.Generator(np.random.PCG64(53))
    rng_b = np.random.Generator(np.random.PCG64(53))
    [offset] = _train_cell([(loss_model, 0.05, 0.2)], proposal, 96, sgd, rng_a)
    want = train_box_scorer_reference(ann, (4.0, 5.0), 0.2, 0.05, proposal, 96, sgd, rng_b, loss_model)
    np.testing.assert_allclose(ann + offset, want, rtol=1e-12, atol=0)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_train_builds_proposals_and_labels_once_per_annotation(monkeypatch):
    built = {"labels": 0, "proposals": 0, "losses": 0}

    def counting_width_check(*args):
        built["labels"] += 1
        return gaussian_normalizer(*args)

    class CountingProposal(MixtureProposal):
        def __post_init__(self):
            built["proposals"] += 1
            super().__post_init__()

    def counting_loss(*args):
        built["losses"] += 1
        return kl_mc_loss(*args)

    monkeypatch.setattr(bbox, "gaussian_normalizer", counting_width_check)
    monkeypatch.setattr(bbox, "kl_mc_loss", counting_loss)
    proposal = CountingProposal([0.5, 0.5], [0.05, 0.5], 4)
    for loss_model in ("kl", "nll"):
        for n_cells in (1, 3):
            built.update(labels=0, proposals=0, losses=0)
            rngs = [np.random.Generator(np.random.PCG64(54 + c)) for c in range(n_cells)]
            train_box_scorer([(loss_model, 0.05, 0.2)], rngs, proposal, 16, SGDConfig(epochs=7))
            # One label width check per job; every cell draws from the given proposal,
            # whose densities the cells share, so none is built; one loss
            # call per draw batch of the whole group.  The delta-label (nll)
            # loss goes through the same divergence code.
            assert built == {"labels": 1, "proposals": 0, "losses": 7}


def _lockstep_jobs():
    # Every loss model, two label widths, and scorers of a second tau, so
    # the stack mixes widths.
    jobs = [(loss_model, sigma_bb, 0.2) for loss_model in ("l2", "rl2", "nll", "kl") for sigma_bb in (0.05, 0.12)]
    jobs += [(loss_model, 0.05, 0.35) for loss_model in ("l2", "rl2", "nll", "kl")]
    return jobs


def test_lockstep_jobs_match_each_job_trained_alone():
    # Every job ends bit for bit where training it alone from an equally
    # seeded generator ends, and the generator ends in the same state.
    jobs = _lockstep_jobs()
    proposal = MixtureProposal([0.3, 0.7], [0.05, 0.4], 4)
    sgd = SGDConfig(learning_rate=0.25, epochs=12, lr_decay=0.5)
    rng = np.random.Generator(np.random.PCG64(55))
    together = _train_cell(jobs, proposal, 64, sgd, rng)
    assert together.shape == (len(jobs), 4)
    for job, got in zip(jobs, together):
        alone_rng = np.random.Generator(np.random.PCG64(55))
        [want] = _train_cell([job], proposal, 64, sgd, alone_rng)
        assert np.array_equal(got, want), job
        assert alone_rng.bit_generator.state == rng.bit_generator.state


def _group(n_cells, seed):
    # Cells with their own streams; every loss model, two label widths and
    # three scorer widths in the shared jobs.
    models = [(loss_model, sigma_bb) for loss_model in ("l2", "rl2", "nll", "kl") for sigma_bb in (0.05, 0.12)]
    jobs = [(loss, sigma, 0.2 + 0.05 * (j % 3)) for j, (loss, sigma) in enumerate(models)]
    rngs = [np.random.Generator(np.random.PCG64(seed + c)) for c in range(n_cells)]
    return jobs, rngs


@pytest.mark.parametrize("n_cells", [2, 5])
def test_group_cells_match_each_cell_trained_alone(n_cells):
    # Every center of a group ends bit for bit where its cell trained alone
    # from an equally seeded generator ends, and every cell's generator ends
    # in the same state.
    proposal = MixtureProposal([0.3, 0.7], [0.05, 0.4], 4)
    sgd = SGDConfig(learning_rate=0.25, epochs=12, lr_decay=0.5)
    jobs, rngs = _group(n_cells, 60)
    together = train_box_scorer(jobs, rngs, proposal, 48, sgd)
    assert together.shape == (n_cells, len(jobs), 4)
    _, alone_rngs = _group(n_cells, 60)
    for rng, alone_rng, got in zip(rngs, alone_rngs, together):
        assert np.array_equal(got, _train_cell(jobs, proposal, 48, sgd, alone_rng))
        assert rng.bit_generator.state == alone_rng.bit_generator.state


def _recording_blocks(monkeypatch):
    """The cell count of every block that train_box_scorer trains, in order."""
    sizes = []
    original = bbox._train_block

    def train_block(jobs, rngs, *args):
        sizes.append(len(rngs))
        return original(jobs, rngs, *args)

    monkeypatch.setattr(bbox, "_train_block", train_block)
    return sizes


@pytest.mark.parametrize("bb_samples,blocks", [(768, [5]), (2048, [3, 2]), (6145, [1] * 5)])
def test_blocks_hold_a_bounded_number_of_draws(monkeypatch, bb_samples, blocks):
    # A block holds at most _GROUP_DRAWS draws per batch across its cells,
    # and at least one cell.
    sizes = _recording_blocks(monkeypatch)
    rngs = [np.random.Generator(np.random.PCG64(61 + c)) for c in range(5)]
    train_box_scorer([("kl", 0.05, 0.2)], rngs, PAPER_PROPOSAL, bb_samples, SGDConfig(epochs=1))
    assert bbox._GROUP_DRAWS == 8 * 768
    assert sizes == blocks


@pytest.mark.parametrize("cells_per_block,blocks", [(8, [8, 1]), (4, [4, 4, 1]), (1, [1] * 9)])
def test_cells_in_any_block_layout_match_each_cell_trained_alone(monkeypatch, cells_per_block, blocks):
    # Every center ends bit for bit where its cell trained alone ends,
    # whichever block the cell falls in.
    proposal = MixtureProposal([0.3, 0.7], [0.05, 0.4], 4)
    sgd = SGDConfig(learning_rate=0.25, epochs=6, lr_decay=0.5)
    jobs, rngs = _group(9, 62)
    _, alone_rngs = _group(9, 62)
    alone = [_train_cell(jobs, proposal, 16, sgd, rng) for rng in alone_rngs]
    sizes = _recording_blocks(monkeypatch)
    monkeypatch.setattr(bbox, "_GROUP_DRAWS", cells_per_block * 16)
    together = train_box_scorer(jobs, rngs, proposal, 16, sgd)
    assert sizes == blocks
    assert together.shape == (9, len(jobs), 4)
    for got, want in zip(together, alone):
        assert np.array_equal(got, want)


def test_block_training_memory_stays_within_a_few_cells():
    # A block holds its cells' draws, offsets, densities, overlaps and score
    # rows together (about 200 KB a cell at 768 draws and four loss models),
    # but recomputes each cell's (jobs x 4 x draws) gradient bases: holding
    # them for a block of 8 would add 786 KB and break the first bound.
    # Blocks train one after another, so three blocks peak as one does.
    cfgs = [TrackerConfig(loss_model=model, scorer_init="train", bb_epochs=3) for model in LOSS_MODELS]
    per_block = bbox._GROUP_DRAWS // cfgs[0].bb_samples
    peaks = []
    for n in (1, per_block, 3 * per_block):
        cells = [((20.0 + i, 20.0, 6.0, 5.0 + i), np.random.Generator(np.random.PCG64(i))) for i in range(n)]
        tracemalloc.start()
        try:
            init_scorers(cfgs, cells)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < 5 * peaks[0], peaks
    assert peaks[2] <= 1.1 * peaks[1], peaks


def test_train_validation_across_cells():
    # A cell is its rng, so the rngs give the cell count.
    sgd = SGDConfig(epochs=2)
    rng = np.random.Generator(np.random.PCG64(59))
    state = rng.bit_generator.state
    with pytest.raises(DimensionError, match="at least one cell"):
        train_box_scorer([("kl", 0.05, 0.2)], [], PAPER_PROPOSAL, 4, sgd)
    with pytest.raises(DimensionError, match="at least one job"):
        train_box_scorer([], [rng, rng], PAPER_PROPOSAL, 4, sgd)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "models,densities,labels,overlaps",
    [
        (("kl", "nll", "l2", "rl2"), 1, 2, 1),
        (("kl",), 1, 2, 0),
        (("nll",), 1, 0, 0),
        (("l2", "rl2"), 0, 0, 1),
    ],
)
def test_lockstep_shares_the_work_per_draw_batch(monkeypatch, models, densities, labels, overlaps):
    # Per epoch: one draw batch per cell, and for the whole group at most
    # one proposal density, one label density per distinct kl width, at most
    # one overlap stack and at most one divergence loss call.
    calls = {}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(bbox, "proposal_sample", counting("sample", proposal_sample))
    monkeypatch.setattr(bbox, "proposal_density", counting("density", proposal_density))
    monkeypatch.setattr(bbox, "gaussian_density", counting("label", gaussian_density))
    monkeypatch.setattr(bbox, "_unit_overlaps", counting("iou", bbox._unit_overlaps))
    monkeypatch.setattr(bbox, "kl_mc_loss", counting("loss", kl_mc_loss))
    jobs = [(loss_model, sigma_bb, 0.2) for loss_model in models for sigma_bb in (0.05, 0.1, 0.05)]
    # A group of cells shares the same calls: one draw batch per cell, the
    # rest once per group.
    for n_cells in (1, 3):
        calls.update(sample=0, density=0, label=0, iou=0, loss=0)
        rngs = [np.random.Generator(np.random.PCG64(56 + c)) for c in range(n_cells)]
        train_box_scorer(jobs, rngs, PAPER_PROPOSAL, 16, SGDConfig(epochs=5))
        steps = 5
        assert calls == {
            "sample": n_cells * steps,
            "density": densities * steps,
            "label": labels * steps,
            "iou": overlaps * steps,
            "loss": densities * steps,
        }, n_cells


@np.errstate(over="ignore", invalid="ignore")
def test_unit_overlaps_are_the_general_iou_bit_for_bit():
    # A training block's overlaps equal iou_xywh against (0, 0, 1, 1) on
    # random (cells, 4, K) draw stacks; every third has log sizes up to
    # +-760, past where exp overflows and underflows, and a size that
    # underflows to 0 raises iou_xywh's DomainError.
    rng = np.random.default_rng(61)
    raised = 0
    for i in range(300):
        offsets = rng.normal(size=(int(rng.integers(1, 5)), 4, int(rng.integers(1, 40)))) * rng.choice([0.1, 1.0, 10.0])
        if i % 3 == 0:
            offsets[:, 2:] = rng.uniform(-760.0, 760.0, size=offsets[:, 2:].shape)
        boxes = np.stack([np.column_stack([cell[:2].T, np.exp(cell[2:].T)]) for cell in offsets])
        sizes = np.empty((len(offsets), 2, offsets.shape[2]))
        try:
            want = iou_xywh(boxes, (0.0, 0.0, 1.0, 1.0))
        except DomainError as exc:
            raised += 1
            with pytest.raises(DomainError, match=str(exc)):
                bbox._unit_overlaps(offsets, sizes)
        else:
            assert np.array_equal(bbox._unit_overlaps(offsets, sizes), want, equal_nan=True)
    assert 0 < raised < 100


def test_score_rows_and_bases_match_the_separate_calls():
    # Each score row is bit for bit its scorer's value_batch, also when the
    # rows are one cell's slice of a (jobs, cells, draws) stack, and each
    # basis is the closed-form center gradient (y - mu) / tau^2, with
    # scorers that differ in centers and widths.
    ys = proposal_sample(PAPER_PROPOSAL, np.random.Generator(np.random.PCG64(58)), size=32)
    scorers = [QuadraticScorer(np.full(4, shift), tau) for shift, tau in ((0.2, 0.2), (-0.1, 0.2), (0.0, 0.35))]
    centers = np.array([scorer.mu for scorer in scorers])
    t2 = np.array([s.tau**2 for s in scorers])
    stack = np.zeros((3, 2, 32))
    bbox._score_rows(centers, t2, ys, stack[:, 1])
    bases = bbox._grad_params_bases(centers, t2, ys)
    assert bases.shape == (3, 4, 32) and not stack[:, 0].any()
    for scorer, s, basis in zip(scorers, stack[:, 1], bases):
        assert np.array_equal(s, scorer.value_batch(ys))
        assert np.array_equal(basis.T, (ys - scorer.mu) / scorer.tau**2)


def test_sgd_config_validation():
    with pytest.raises(DomainError):
        SGDConfig(learning_rate=0.0)
    with pytest.raises(DomainError):
        SGDConfig(epochs=0)
    with pytest.raises(DomainError):
        SGDConfig(lr_decay=-0.1)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def test_refine_reaches_unique_maximum():
    # For the quadratic family a step of tau^2 jumps exactly onto mu.
    mu = np.array([0.3, -0.1, 0.7, 0.2])
    scorer = QuadraticScorer(mu, tau=0.1)
    y0 = (mu + 0.05).tolist()
    out, _ = refine_box(scorer, y0, RefConfig(step_length=0.01, steps=10))
    np.testing.assert_allclose(out, mu, atol=1e-6)

    # Dense grid search over the neighborhood agrees on the maximizer.
    ax = np.linspace(-0.08, 0.08, 9)
    grids = np.meshgrid(ax, ax, ax, ax, indexing="ij")
    pts = np.array(y0) + np.stack([g.ravel() for g in grids], axis=1)
    grid_best = pts[int(np.argmax(scorer.value_batch(pts)))]
    assert float(np.abs(np.array(out) - grid_best).max()) <= (ax[1] - ax[0]) + 1e-12


def test_refine_stationary_start_is_fixed_point():
    mu = np.array([0.1, 0.2, 0.3, 0.4])
    scorer = QuadraticScorer(mu, tau=0.3)
    y0 = mu.tolist()
    out, _ = refine_box(scorer, y0, RefConfig())
    assert out == y0


def test_refine_zero_steps_is_identity():
    scorer = QuadraticScorer(np.zeros(4), tau=0.3)
    y0 = [0.5, 0.5, 0.0, 0.0]
    assert refine_box(scorer, y0, RefConfig(steps=0)) == (y0, 0)


def test_refine_never_scores_below_start():
    rng = np.random.Generator(np.random.PCG64(51))
    for _ in range(20):
        scorer = QuadraticScorer(rng.normal(0.0, 1.0, 4), tau=rng.uniform(0.2, 1.0))
        y0 = rng.normal(0.0, 1.0, 4).tolist()
        # Deliberately coarse steps so single updates can overshoot: a step
        # beyond 2 tau^2 lands farther from the center than it started.
        out, _ = refine_box(scorer, y0, RefConfig(step_length=0.5, steps=8))
        got, start = scorer.value_batch(np.array([out, y0]))
        assert got >= start


def test_refine_survives_non_finite_gradient():
    scorer = QuadraticScorer(np.full(4, 1e200), tau=1.0)
    y0 = [0.0] * 4
    with np.errstate(over="ignore", invalid="ignore"):
        out, _ = refine_box(scorer, y0, RefConfig())
    assert out == y0


@pytest.mark.parametrize("family", ["quadratic"])
def test_float_scores_match_the_array_scores(family):
    # _score scores one box on Python floats for refine_box and the nll
    # annotation term; it must agree bit for bit with value_batch.  The
    # ascent's float gradients are checked against the closed form by the
    # reference-loop test below.
    rng = np.random.Generator(np.random.PCG64(61))
    for _ in range(200):
        scorer = QuadraticScorer(rng.normal(0.0, 1.0, 4), tau=rng.uniform(0.05, 1.0))
        y = rng.normal(0.0, 1.0, 4) * 10.0 ** rng.integers(-3, 3, 4)
        assert bbox._score(*(y - scorer.mu).tolist(), -2.0 * scorer.tau**2) == scorer.value_batch(y[None, :])[0]


def _refine_cases():
    """(scorer, start, config, how the reference loop ends) per case."""
    rng = np.random.Generator(np.random.PCG64(60))
    cases = []
    for _ in range(12):
        scorer = QuadraticScorer(rng.normal(0.0, 1.0, 4), tau=rng.uniform(0.05, 1.0))
        y0 = rng.normal(0.0, 1.0, 4).tolist()
        cases.append((scorer, y0, RefConfig(step_length=rng.uniform(0.005, 0.5), steps=10), "random"))
    cases.append((scorer, y0, RefConfig(steps=0), "no steps"))
    # A start 1e-9 off the maximum moves less than the tolerance at once.
    scorer = QuadraticScorer(np.full(4, 0.3), tau=1.0)
    cases.append((scorer, [0.3 + 1e-9] * 4, RefConfig(), "converged"))
    # tau^2 = 1e-10 turns the distance to a far center into an infinite gradient.
    scorer = QuadraticScorer(np.full(4, 1e300), tau=1e-5)
    cases.append((scorer, [0.0] * 4, RefConfig(), "non-finite"))
    return cases


@pytest.mark.parametrize("family", ["quadratic"])
def test_refine_matches_the_numpy_reference_loop(family):
    # refine_box steps on Python floats; the NumPy loop it replaced must give
    # the same box bit for bit after the same number of gradients.
    seen = {"random": 0, "no steps": 0, "converged": 0, "non-finite": 0}
    for scorer, y0, cfg, case in _refine_cases():
        with np.errstate(over="ignore", invalid="ignore"):
            got, evaluated = refine_box(scorer, y0, cfg)
            want, want_evaluated = refine_box_reference(scorer, y0, cfg)
        assert got == want.tolist(), case
        assert all(type(v) is float for v in got), case
        assert evaluated == want_evaluated, case
        if case == "converged":
            assert want_evaluated == 1
        if case == "non-finite":
            assert want_evaluated == 1 and got == y0
        seen[case] += 1
    assert all(seen.values())


def test_ref_config_validation():
    with pytest.raises(DomainError):
        RefConfig(step_length=0.0)
    with pytest.raises(DomainError):
        RefConfig(steps=-1)
    with pytest.raises(DomainError):
        RefConfig(convergence_tol=0.0)
