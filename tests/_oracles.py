"""Independent reference implementations the tests check against.

Everything here is deliberately written the slow, obvious way (explicit
loops, no shared helpers from the package) so a disagreement points at the
implementation, not at a common bug.  The one exception is
optimize_reference, which replays the solver's loop on the package's public
objective, gradient and curvature; those are checked against finite
differences on their own.
"""

import math

import numpy as np


def fd_gradient(f, x, eps=1e-6):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        step = eps * max(1.0, abs(xf[i]))
        xp = xf.copy()
        xm = xf.copy()
        xp[i] += step
        xm[i] -= step
        flat[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2.0 * step)
    return g


def fd_directional(f, x, v, eps=1e-6):
    """Central finite-difference directional derivative of f at x along v."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        return 0.0
    u = v / n
    return n * (f(x + eps * u) - f(x - eps * u)) / (2.0 * eps)


def conv_brute(zvals, wvals):
    """Direct quadruple-loop cross-correlation with zero padding ("same")."""
    c, h, w = zvals.shape
    _, kh, kw = wvals.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((h, w))
    for r in range(h):
        for col in range(w):
            acc = 0.0
            for ch in range(c):
                for i in range(kh):
                    for j in range(kw):
                        rr = r + i - ph
                        cc = col + j - pw
                        if 0 <= rr < h and 0 <= cc < w:
                            acc += wvals[ch, i, j] * zvals[ch, rr, cc]
            out[r, col] = acc
    return out


def conv_adjoint_brute(zvals, uvals, kh, kw):
    """Quadruple-loop kernel-space adjoint of conv_brute for grid uvals."""
    c, h, w = zvals.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((c, kh, kw))
    for ch in range(c):
        for i in range(kh):
            for j in range(kw):
                acc = 0.0
                for r in range(h):
                    for col in range(w):
                        rr = r + i - ph
                        cc = col + j - pw
                        if 0 <= rr < h and 0 <= cc < w:
                            acc += uvals[r, col] * zvals[ch, rr, cc]
                out[ch, i, j] = acc
    return out


def recount_op_auc(ious):
    """OP_T at T in {0.00, 0.01, ..., 1.00} (strict >) and their mean."""
    ious = list(ious)
    thresholds = [t / 100.0 for t in range(101)]
    op = []
    for t in thresholds:
        op.append(sum(1 for v in ious if v > t) / len(ious))
    return op, sum(op) / len(op)


def iou_brute(a, b):
    """Axis-aligned IoU of two (cx, cy, w, h) boxes."""
    ax0, ax1 = a[0] - a[2] / 2.0, a[0] + a[2] / 2.0
    ay0, ay1 = a[1] - a[3] / 2.0, a[1] + a[3] / 2.0
    bx0, bx1 = b[0] - b[2] / 2.0, b[0] + b[2] / 2.0
    by0, by1 = b[1] - b[3] / 2.0, b[1] + b[3] / 2.0
    iw = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    ih = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union if union > 0 else 0.0


def optimize_reference(kernel, support, cfg):
    """The steepest-descent loop of optimize, re-evaluated from scratch.

    Every objective, gradient and curvature comes from the public functions
    at the current (or trial) weights, with no state carried between them.
    A trial is accepted only below the current objective, and the loop ends
    after a zero gradient or a search whose 40 halvings all fail.  Returns
    (weights, step lengths, halvings), one step and one halving count per
    iteration run.
    """
    from prtrack.center_optimizer import STEP_LENGTH_FLOOR, gradient, hessian_quadratic_form, objective
    from prtrack.gridmath import Kernel2D

    at = Kernel2D
    lam = cfg.regularization
    w = kernel.values.copy()
    steps, halvings = [], []
    for _ in range(cfg.iterations):
        obj = objective(at(w), support, cfg)
        g = gradient(at(w), support, cfg).values
        gg = float((g * g).sum())
        accepted, halved = 0.0, 0
        if gg != 0.0:
            denom = hessian_quadratic_form(at(w), Kernel2D(g), support, cfg)
            alpha = gg / denom if denom >= STEP_LENGTH_FLOOR * gg else 1.0 / lam
            for _ in range(40):
                cand = w - alpha * g
                cand_obj = objective(at(cand), support, cfg)
                if math.isfinite(cand_obj) and cand_obj < obj:
                    w, accepted = cand, alpha
                    break
                alpha *= 0.5
                halved += 1
        steps.append(accepted)
        halvings.append(halved)
        if not accepted:
            break
    return w, steps, halvings


def train_box_scorer_reference(
    ann, reference, tau, sigma_bb, proposal, samples, rng, loss_model, *, learning_rate, epochs, lr_decay
):
    """Plain per-epoch box-scorer training on one annotation: rebuild everything every epoch.

    ann is the encoded annotation (cx / w0, cy / h0, log w, log h) against
    the reference size (w0, h0).  The center starts on the annotation.  Draws come from rng.choice and
    standard_normal; the densities, the scores, their gradients in the
    center, (y - mu) / tau^2, and the loss gradients are written out here.
    Returns the trained center.
    """
    center = np.array(ann, dtype=np.float64)
    mu, t2 = center.copy(), float(tau) ** 2
    weights = np.asarray(proposal.weights, dtype=np.float64)
    sigmas = np.asarray(proposal.sigmas, dtype=np.float64)

    def gauss(d2, sigma, dim):
        return (2.0 * math.pi * sigma * sigma) ** (-dim / 2.0) * np.exp(-d2 / (2.0 * sigma * sigma))

    def boxes(ys, reference):
        return np.column_stack(
            [ys[:, 0] * reference[0], ys[:, 1] * reference[1], np.exp(ys[:, 2]), np.exp(ys[:, 3])]
        )

    def iou(a, b):
        lo = np.maximum(a[:, :2] - a[:, 2:] / 2, b[:2] - b[2:] / 2)
        hi = np.minimum(a[:, :2] + a[:, 2:] / 2, b[:2] + b[2:] / 2)
        inter = np.clip(hi - lo, 0.0, None).prod(axis=1)
        return inter / (a[:, 2:].prod(axis=1) + b[2:].prod() - inter)

    w0, h0 = reference
    box = np.array([center[0] * w0, center[1] * h0, math.exp(center[2]), math.exp(center[3])])
    k, dim = samples, center.size
    tail = []
    for epoch in range(epochs):
        lr = learning_rate / (1.0 + lr_decay * epoch)
        comp = rng.choice(weights.size, size=k, p=weights)
        ys = center + sigmas[comp, None] * rng.standard_normal((k, dim))
        basis = (ys - mu) / t2
        s = -((ys - mu) ** 2).sum(axis=1) / (2.0 * t2)
        d2 = ((ys - center) ** 2).sum(axis=1)
        q = sum(w * gauss(d2, sig, dim) for w, sig in zip(weights, sigmas))
        t = s - np.log(q)
        e = np.exp(t - t.max())
        if loss_model == "kl":
            p = gauss(d2, sigma_bb, dim)
            grad = (e / e.sum() - p / (q * k)) @ basis
        elif loss_model == "nll":
            grad = (e / e.sum()) @ basis - (center - mu) / t2
        else:
            targets = iou(boxes(ys, reference), box)
            c = np.exp(s)
            r = c - targets if loss_model == "l2" else np.where(targets > 0.05, c - targets, c)
            grad = (2.0 / k) * ((r * c) @ basis)
        mu = mu - lr * grad
        if epoch >= epochs // 2:
            tail.append(mu)
    return np.mean(tail, axis=0)


def refine_box_reference(scorer, y0, step, steps, tol):
    """The box refinement loop on NumPy arrays: gradient ascent from y0 with refine_box's arguments.

    Scores -||y - mu||^2 / (2 tau^2) and gradients -(y - mu) / tau^2 are
    written out here.  Returns the best iterate's values and the number of
    gradients evaluated.
    """
    mu, t2 = scorer.mu, scorer.tau**2

    def value(y):
        d = y - mu
        return float((d * d).sum() / (-2.0 * t2))

    y = np.array(y0, dtype=np.float64)
    best_y, best_s = y.copy(), value(y)
    evaluated = 0
    for _ in range(steps):
        g = -(y - mu) / t2
        evaluated += 1
        if not np.isfinite(g).all():
            break
        y = y + step * g
        s = value(y)
        if math.isfinite(s) and s > best_s:
            best_y, best_s = y.copy(), s
        if float(np.abs(step * g).max()) < tol:
            break
    return best_y, evaluated
