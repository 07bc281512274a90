"""The classifier's training step as a per-layer loop: the reference for
PolicyApproximator.fit, which keeps its parameters, gradients and
velocities in flat vectors and writes every product into a buffer."""

import math

import numpy as np

from intersim.imitation import LR_FLOOR_FRAC, MOMENTUM


def reference_fit(policy, X, y, cfg, rng, steps):
    """(theta, final minibatch loss) of steps of minibatch momentum SGD
    from policy's parameters, one array per layer, a fresh array for every
    product. policy itself is left as it is."""
    ws = [w.copy() for w in policy.ws]
    bs = [b.copy() for b in policy.bs]
    n = X.shape[0]
    loss = 0.0
    order = rng.permutation(n)
    pos = 0
    vws = [np.zeros_like(w) for w in ws]
    vbs = [np.zeros_like(b) for b in bs]
    decay = LR_FLOOR_FRAC ** (1.0 / max(steps - 1, 1))
    lr = cfg.lr
    n_layers = len(ws)
    for _ in range(steps):
        if pos + cfg.batch_size > n:
            order = rng.permutation(n)
            pos = 0
        idx = order[pos : pos + cfg.batch_size] if n >= cfg.batch_size else order
        pos += cfg.batch_size
        Xb, yb = X[idx], y[idx]
        acts = [Xb]  # post-activation input to each layer
        pres = []  # pre-activation of each hidden layer
        for w, b in zip(ws[:-1], bs[:-1]):
            pre = acts[-1] @ w + b
            pres.append(pre)
            acts.append(np.maximum(pre, 0.0))
        Z = acts[-1] @ ws[-1] + bs[-1]
        Z -= Z.max(axis=1, keepdims=True)
        expz = np.exp(Z)
        P = expz / expz.sum(axis=1, keepdims=True)
        m = Xb.shape[0]
        loss = float(-np.log(P[np.arange(m), yb] + 1e-12).mean())
        if not math.isfinite(loss):
            raise RuntimeError(f"classifier training diverged (loss={loss})")
        G = P
        G[np.arange(m), yb] -= 1.0
        G /= m
        gws = [np.empty(0)] * n_layers
        gbs = [np.empty(0)] * n_layers
        for layer in range(n_layers - 1, -1, -1):
            gws[layer] = acts[layer].T @ G
            gbs[layer] = G.sum(axis=0)
            if layer > 0:
                G = (G @ ws[layer].T) * (pres[layer - 1] > 0.0)
        mu = MOMENTUM
        for layer in range(n_layers):
            vws[layer] = mu * vws[layer] + gws[layer]
            vbs[layer] = mu * vbs[layer] + gbs[layer]
            ws[layer] -= lr * vws[layer]
            bs[layer] -= lr * vbs[layer]
        lr *= decay
    theta = np.concatenate([part for w, b in zip(ws, bs) for part in (w.ravel(), b)])
    return theta, loss
