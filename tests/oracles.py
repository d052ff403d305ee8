"""Independent reference implementations backing the test suite.

Everything here is coded from first principles (plain loops, brute-force
enumeration, grid search) without calling the library's computational
routines, so a library bug cannot hide inside its own oracle.  These are
deliberately slow; use tiny instances.
"""

import itertools
import math

import numpy as np


def loop_product(M, N):
    """Triple-loop matrix product."""
    m, n = M.shape
    n2, p = N.shape
    assert n == n2
    out = np.zeros((m, p))
    for h in range(m):
        for f in range(p):
            acc = 0.0
            for i in range(n):
                acc += M[h, i] * N[i, f]
            out[h, f] = acc
    return out


def loop_column_norms(M):
    return np.array([math.sqrt(sum(M[h, i] ** 2 for h in range(M.shape[0])))
                     for i in range(M.shape[1])])


def loop_row_norms(N):
    return np.array([math.sqrt(sum(N[i, f] ** 2 for f in range(N.shape[1])))
                     for i in range(N.shape[0])])


def hand_optimal_probs(Mb, Nb):
    """Norm-product probabilities for one block, by direct normalization."""
    scores = loop_column_norms(Mb) * loop_row_norms(Nb)
    total = scores.sum()
    if total == 0.0:
        return np.zeros_like(scores)
    return scores / total


def block_outcomes(Mb, Nb, count, probs):
    """Exhaustively enumerate one block's estimator: every support^count
    index tuple with its probability and estimate."""
    support = [i for i in range(len(probs)) if probs[i] > 0]
    results = []
    for combo in itertools.product(support, repeat=count):
        prob = 1.0
        est = np.zeros((Mb.shape[0], Nb.shape[1]))
        for i in combo:
            prob *= probs[i]
            est += np.outer(Mb[:, i], Nb[i, :]) / (count * probs[i])
        results.append((prob, est))
    return results


def outcome_mean_var(outcomes):
    """Probability-weighted mean and elementwise variance of enumerated
    (prob, estimate) pairs."""
    mean = sum(prob * est for prob, est in outcomes)
    var = sum(prob * (est - mean) ** 2 for prob, est in outcomes)
    total = sum(prob for prob, _ in outcomes)
    assert abs(total - 1.0) < 1e-12
    return mean, var


def blockwise_mean_var(M, N, sizes, budgets, probs_per_block):
    """Exact estimator mean/variance of the blocked estimator, block by
    block (blocks are sampled independently, so means and variances add;
    ``test_joint_enumeration_matches_blockwise`` validates this against the
    full joint enumeration)."""
    mean = np.zeros((M.shape[0], N.shape[1]))
    var = np.zeros((M.shape[0], N.shape[1]))
    start = 0
    for n_k, c_k, probs in zip(sizes, budgets, probs_per_block):
        Mb = M[:, start : start + n_k]
        Nb = N[start : start + n_k, :]
        start += n_k
        if c_k == 0:
            continue
        bm, bv = outcome_mean_var(block_outcomes(Mb, Nb, c_k, probs))
        mean += bm
        var += bv
    return mean, var


def joint_mean_var(M, N, sizes, budgets, probs_per_block):
    """Full joint enumeration across blocks (product measure).  Exponential;
    keep the total outcome count tiny."""
    per_block = []
    start = 0
    for n_k, c_k, probs in zip(sizes, budgets, probs_per_block):
        Mb = M[:, start : start + n_k]
        Nb = N[start : start + n_k, :]
        start += n_k
        if c_k > 0:
            per_block.append(block_outcomes(Mb, Nb, c_k, probs))
    joint = []
    for combo in itertools.product(*per_block):
        prob = 1.0
        est = np.zeros((M.shape[0], N.shape[1]))
        for bp, best in combo:
            prob *= bp
            est += best
        joint.append((prob, est))
    return outcome_mean_var(joint)


def loop_expected_sq_error(M, N, sizes, budgets, probs_per_block):
    """Plain-loop evaluation of the expected squared Frobenius error of the
    blocked estimator at arbitrary (real) budgets and probabilities."""
    total = 0.0
    start = 0
    for n_k, c_k, probs in zip(sizes, budgets, probs_per_block):
        Mb = M[:, start : start + n_k]
        Nb = N[start : start + n_k, :]
        start += n_k
        term1 = 0.0
        for i in range(n_k):
            if probs[i] > 0:
                col_sq = sum(Mb[h, i] ** 2 for h in range(Mb.shape[0]))
                row_sq = sum(Nb[i, f] ** 2 for f in range(Nb.shape[1]))
                term1 += col_sq * row_sq / probs[i]
            else:
                for h in range(Mb.shape[0]):
                    for f in range(Nb.shape[1]):
                        assert Mb[h, i] * Nb[i, f] == 0.0, "zero prob at contributing column"
        prod = loop_product(Mb, Nb)
        term2 = sum(prod[h, f] ** 2 for h in range(prod.shape[0]) for f in range(prod.shape[1]))
        numerator = term1 - term2
        if c_k == 0:
            assert abs(numerator) < 1e-9, "zero budget on a block with variance"
            continue
        total += numerator / c_k
    return total


def grid_best_split(M, N, sizes, c, points=2001):
    """Grid-search the best real two-block budget split at norm-product
    probabilities.  Only K=2."""
    assert len(sizes) == 2
    probs = []
    start = 0
    for n_k in sizes:
        probs.append(hand_optimal_probs(M[:, start : start + n_k], N[start : start + n_k, :]))
        start += n_k
    best = (math.inf, None)
    for c1 in np.linspace(1e-6, c - 1e-6, points):
        obj = loop_expected_sq_error(M, N, sizes, [c1, c - c1], probs)
        if obj < best[0]:
            best = (obj, c1)
    return best


def largest_remainder_reference(weights, c):
    """Hand largest-remainder apportionment, no floors or caps."""
    shares = [c * w / sum(weights) for w in weights]
    base = [math.floor(s) for s in shares]
    deficit = c - sum(base)
    order = sorted(range(len(weights)), key=lambda i: (-(shares[i] - base[i]), i))
    for i in order[:deficit]:
        base[i] += 1
    return base


def clipped_proportional_split(weights, c, floor, caps):
    """Real split clip(t * w, floor, cap) summing to c, with t found by
    bisection; None when the positive weights cannot take c even at their
    caps (the zero-weight blocks then absorb the rest, in no proportion)."""
    w = np.asarray(weights, dtype=float)
    lo = np.asarray(floor, dtype=float)
    hi = np.asarray(caps, dtype=float)
    if np.where(w > 0, hi, lo).sum() < c:
        return None
    t_lo, t_hi = 0.0, (hi.max() + 1.0) / w[w > 0].min()
    for _ in range(200):
        t = 0.5 * (t_lo + t_hi)
        if np.clip(t * w, lo, hi).sum() < c:
            t_lo = t
        else:
            t_hi = t
    return np.clip(t_hi * w, lo, hi)


def inverse_cdf_draw(probs, count, rng):
    """Reference draw rule for one probability vector: ``count`` uniforms on
    ``rng``, each looked up in ``np.cumsum(probs)`` (first running sum above
    u), then clamped onto the last index with positive probability, where a
    u at or above the last sum lands by rounding."""
    probs = np.asarray(probs, dtype=float)
    drawn = np.cumsum(probs).searchsorted(rng.random(count), side="right")
    return np.minimum(drawn, np.flatnonzero(probs > 0)[-1])


def loop_cancellation(s, g, exact, tol=1e-12):
    """Per-block cancellation statistics by a plain loop over score sums s
    and product norms g (exact, or pilot estimates when ``exact`` is false):
    (ratios, cancel, lo, hi, zero_score_blocks, degenerate_blocks).  A
    zero-score block has ratio and cancellation NaN.  A scored block is
    degenerate when its ratio is within tol of 1 (exact) or its cancellation
    within tol of 0 (pilot, where cancel is |1 - ratio^2|).  lo is the
    minimum cancellation over the other scored blocks (0.0 when there is
    none), hi the maximum over all scored blocks and 0.0."""
    ratios, cancel, zero, degenerate, usable = [], [], [], [], []
    hi = 0.0
    for k in range(len(s)):
        sk, gk = float(s[k]), float(g[k])
        if sk == 0.0:
            ratios.append(math.nan)
            cancel.append(math.nan)
            zero.append(k)
            continue
        r = gk / sk
        ck = 1.0 - r * r
        if not exact:
            ck = abs(ck)
        ratios.append(r)
        cancel.append(ck)
        hi = max(hi, ck)
        if (r >= 1.0 - tol) if exact else (ck <= tol):
            degenerate.append(k)
        else:
            usable.append(ck)
    lo = min(usable) if usable else 0.0
    return np.array(ratios), np.array(cancel), lo, hi, tuple(zero), tuple(degenerate)


def loop_floor_ratio(probs, reference):
    """min over i with reference[i] > 0 of probs[i] / reference[i], and 1.0."""
    floor = 1.0
    for p, q in zip(probs, reference):
        if q > 0:
            floor = min(floor, float(p) / float(q))
    return floor
