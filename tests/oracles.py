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


def level_search_split(w, c, lo, hi):
    """The clipped split clip(t * w, lo, hi) of c, rounded to integers, by a
    level search over the sorted breakpoints lo/w and hi/w: the budget split
    ``integerize`` made before its variable-fixing loop, kept frozen as the
    loop's reference.  w are nonnegative float64 weights, not all zero; lo
    and hi are int64 floors (0 or 1) and caps (each at most c) with
    sum(lo) <= c <= sum(hi).  Raises ValueError when the positive weights
    span more than 2**960 (the breakpoints would overflow)."""

    def outside(r, lo, hi):
        return (r < lo) | (r > hi + 1e-12)

    def proportional(out, inside):
        budget = c - int(out[~inside].sum())
        wi = w[inside]
        total = wi.sum()
        return budget, (budget * wi / total if total > 0 else None)

    def largest_remainder(r, budget, hi):
        base = np.floor(r)
        order = np.argsort(base - r, kind="stable")
        order = order[(base < hi)[order]]
        base = base.astype(np.int64)
        base[order[: budget - int(base.sum())]] += 1
        return base

    lo_sum = int(lo.sum())
    if c == lo_sum:
        return lo.copy()
    # The level: a block's share t * u leaves its floor at lo/u and reaches
    # its cap at hi/u, so at each sorted breakpoint the total is a running
    # constant plus t times the weight between the two.
    pos = w > 0
    u = w / w.max()
    up, lp, hp = u[pos], lo[pos], hi[pos]
    if up.min() < 2.0**-960:
        raise ValueError("positive weights span more than a factor 2**960: the breakpoints overflow float64")
    bp = np.concatenate((lp / up, hp / up))
    order = np.argsort(bp, kind="stable")
    t = bp[order]
    const = np.concatenate((-lp, hp))[order].cumsum() + lo_sum
    change = np.concatenate((up, -up))[order]
    slope = np.zeros(t.size)
    slope[:-1] = -change[:0:-1].cumsum()[::-1]
    if const[-1] <= c:
        # The positive blocks sit at their caps; the zero-weight blocks take the rest.
        out = np.where(pos, hi, lo)
        inside = ~pos
    else:
        i = int(np.argmax(const + t * slope >= c))
        level = min(max((c - const[i - 1]) / slope[i - 1], t[i - 1]), t[i])
        share = level * u
        bound = np.minimum(np.maximum(share, lo), hi)
        out = bound.astype(np.int64)
        inside = np.abs(share - bound) <= 1e-9 * bound  # within rounding of a bound: inside for now
    budget, r = proportional(out, inside)
    if r is not None:
        # The split's own rounding settles the shares the level left at a bound.
        settle = outside(r, lo[inside], hi[inside])
        if settle.any():
            idx = np.flatnonzero(inside)[settle]
            out[idx] = np.where(r[settle] < lo[idx], lo[idx], hi[idx])
            inside[idx] = False
            budget, r = proportional(out, inside)
    if r is None:
        # Only zero weights inside: floors first, then the rest in index order.
        lo_in, room = lo[inside], hi[inside] - lo[inside]
        rest = budget - int(lo_in.sum())
        out[inside] = lo_in + np.minimum(room, np.maximum(rest - (room.cumsum() - room), 0))
        return out
    out[inside] = largest_remainder(r, budget, hi[inside])
    return out


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
