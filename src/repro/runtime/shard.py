"""The fixpoint slot replay engine, sharded by region.

This is the only fixpoint engine (the approach is described in
:mod:`repro.runtime.replay`).  It partitions the fixpoint
geographically, the way SoCL's National Stadium setting naturally
shards: edge nodes are grouped into **regions** (:class:`RegionMap`),
each region's state — node FIFO cores, the instance-pool warmth groups
on its nodes, its users' requests — is isolated into a
:class:`RegionShard`, and the shards run Jacobi rounds, reconciling
cross-region chain hops at the shard boundary with two bounded
exchanges per round:

1. **ready exchange** — each shard propagates its own requests' chains
   and exports the ready times of invocations that land on another
   region's nodes;
2. **start exchange** — each shard simulates its own nodes' pool
   warmth and FIFO queues (over local *and* imported invocations) and
   exports the resulting start/penalty values back to the owning
   shards.

Every shard applies the event loop's exact float arithmetic in the
same round schedule whatever the region map, so the iterates — and
therefore the round count, the tie/decline decisions and every
committed output — do not depend on the region map, and the committed
outputs are **bit-identical** to the event loop
(:meth:`repro.runtime.cluster.SimulatedCluster.run` with
``fast_replay=False``); Hypothesis suites enforce both.
:func:`replay_slot` is the unsharded entry point: one region holding
every node.

Every edge node has :data:`~repro.runtime.replay.NODE_CORES` (two)
cores, and every FIFO kernel here implements only the two-core claim
rule; :func:`~repro.runtime.replay.build_replay_plan` declines any
other node.  Within each shard the FIFO core scan is *vectorized*: a
conflict-free screen (exact max/min prefix dynamics of that rule)
accepts uncontended stretches in O(1) NumPy passes and only the
congested segments fall back to the scalar claim scan, which is what
lets a single shard absorb hundreds of thousands of invocations per
round (``benchmarks/bench_shard.py``).

Shards run in-process, one after another, in a fixed region order.
Telemetry counters (``runtime.shard.*``) are documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.obs.tracer import Span, current_tracer
from repro.model.instance import ProblemInstance
from repro.model.placement import Placement, Routing
from repro.runtime.replay import (
    DEFAULT_MAX_ROUNDS,
    NODE_CORES,
    ReplayPlan,
    ReplayResult,
    build_replay_plan,
    empty_result,
)
from repro.runtime.serverless import InstancePool
from repro.utils.validation import check_positive


# ---------------------------------------------------------------------------
# Region partitioning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionMap:
    """Assignment of edge nodes to ``n_regions`` geographic regions.

    ``regions[v]`` is the region id of node ``v``.  Regions may be
    empty (a valid shard with no nodes); every node belongs to exactly
    one region.  The cloud pseudo-node is not part of any region —
    cloud stages never queue, so they stay with the request's owner.
    """

    regions: np.ndarray
    n_regions: int

    def __post_init__(self) -> None:
        check_positive("n_regions", self.n_regions)
        regions = np.asarray(self.regions, dtype=np.int64)
        object.__setattr__(self, "regions", regions)
        if regions.ndim != 1:
            raise ValueError(f"regions must be 1-D, got shape {regions.shape}")
        if regions.size and (
            regions.min() < 0 or regions.max() >= self.n_regions
        ):
            raise ValueError(
                f"region ids must lie in [0, {self.n_regions}), got "
                f"[{regions.min()}, {regions.max()}]"
            )

    @property
    def n_nodes(self) -> int:
        """Number of nodes covered by the map (``regions.size``)."""
        return int(self.regions.size)

    def nodes_of(self, region: int) -> np.ndarray:
        """Node indices belonging to ``region`` (ascending)."""
        return np.nonzero(self.regions == region)[0]

    @classmethod
    def contiguous(cls, n_nodes: int, n_regions: int) -> "RegionMap":
        """Balanced contiguous blocks of node indices."""
        check_positive("n_nodes", n_nodes)
        check_positive("n_regions", n_regions)
        n_regions = min(n_regions, n_nodes)
        bounds = np.linspace(0, n_nodes, n_regions + 1).astype(np.int64)
        regions = np.empty(n_nodes, dtype=np.int64)
        for r in range(n_regions):
            regions[bounds[r] : bounds[r + 1]] = r
        return cls(regions=regions, n_regions=n_regions)

    @classmethod
    def from_positions(
        cls, positions: np.ndarray, n_regions: int
    ) -> "RegionMap":
        """Angular sectors around the centroid — the stadium's natural
        partition: each region is a wedge of cells around the venue."""
        check_positive("n_regions", n_regions)
        pos = np.asarray(positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must be (n, 2), got {pos.shape}")
        n_regions = min(n_regions, max(1, pos.shape[0]))
        center = pos.mean(axis=0)
        ang = np.arctan2(pos[:, 1] - center[1], pos[:, 0] - center[0])
        # rank nodes by angle and cut into equal arcs so regions stay
        # balanced even when the angular density is lopsided
        order = np.argsort(ang, kind="stable")
        regions = np.empty(pos.shape[0], dtype=np.int64)
        bounds = np.linspace(0, pos.shape[0], n_regions + 1).astype(np.int64)
        for r in range(n_regions):
            regions[order[bounds[r] : bounds[r + 1]]] = r
        return cls(regions=regions, n_regions=n_regions)


# ---------------------------------------------------------------------------
# Exact vectorized FIFO kernel
# ---------------------------------------------------------------------------
#
# The scalar claim scan (``_fifo_reference``) walks each node's
# (ready-sorted) invocations in a Python loop, each claiming the
# earlier-free of the node's two cores.  That loop has a closed pair
# form: claiming always *replaces the minimum* of the core-free pair,
# so the pair before job ``k`` is exactly ``{max(0, F[0..k-2]),
# F[k-1]}`` — congested or not.  Job ``k``'s start is therefore
#
#     start[k] = max(admit[k], min(cummax-lagged(F)[k], F[k-1]))
#     F[k]     = start[k] + work[k]
#
# a fixpoint in ``F`` whose iterates use only the event loop's own
# float ops (max / min / one add), so the converged solution is
# bit-identical to the scalar scan.  From *any* initial vector, each
# NumPy sweep extends the self-consistent prefix past at least one more
# position: once the values before the sweep's first change are stable
# they are computed only from each other and the seeds, hence final.
# The window therefore shrinks from the left every sweep, and a good
# warm start (the previous round's starts) converges in one or two
# sweeps.  A cap hands a block holding a deep cascade to the scalar scan
# (exact either way).

#: Fixpoint sweeps per block before ``_fifo_starts`` scans the rest of
#: the block with the scalar loop.  Each sweep resolves at least one more
#: link of the longest congestion cascade; uncongested blocks converge
#: in one or two, and a saturated block is cheaper to scan than to sweep.
FIFO_SWEEP_CAP = 16

#: Block length for the causal block-by-block solve in
#: ``_fifo_starts``: large enough to amortize NumPy call overhead,
#: small enough that a deep cascade only re-sweeps its own block.
FIFO_BLOCK = 4096

#: Lockstep iterations before ``_fifo_patch_many`` hands a span to the
#: scalar walk.  Spans typically rejoin within a few positions of their
#: width; only a deep cascade outlives this, and the scalar walk (then
#: the blocked solve) remains exact for those.
_PATCH_LOCKSTEP_CAP = 192


def _fifo_starts(
    admit: np.ndarray,
    work: np.ndarray,
    init: Optional[np.ndarray] = None,
    lo0: int = 0,
) -> np.ndarray:
    """Exact FIFO start times for one node's claim-ordered invocations.

    ``admit``/``work`` are aligned with the claim order (ready-sorted).
    ``init`` optionally seeds the fixpoint (e.g. the previous round's
    starts for these invocations in their new claim order) — any vector
    is sound, a close one converges in a sweep or two.  ``lo0`` asserts
    that ``init[:lo0]`` is already final (admits before ``lo0`` are
    unchanged since the init converged, so that prefix is the unique
    event-loop solution); the sweep window then starts at ``lo0``.
    Bit-identical to the scalar scan :func:`_fifo_reference`.
    """
    n = int(admit.size)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    if n < 32:
        starts, _ = _fifo_reference(admit, work)
        return starts
    starts = admit.copy() if init is None else init.astype(np.float64, copy=True)
    lo = int(lo0) if init is not None else 0
    if lo >= n:
        return starts
    if lo > 0:
        # re-seed from the finalized prefix's finish times
        s_fprev = float(starts[lo - 1] + work[lo - 1])  # F[lo-1]
        s_kept = (  # max(0, F[0..lo-2])
            float(np.max(starts[: lo - 1] + work[: lo - 1]))
            if lo >= 2
            else 0.0
        )
    else:
        s_kept = 0.0  # max(0, F[0..lo-2]) over the finalized prefix
        s_fprev = 0.0  # F[lo-1]
    # The recurrence is strictly causal (position k reads only j < k),
    # so a converged block is final and the solve proceeds block by
    # block: one deep congestion cascade then re-sweeps only its own
    # block, not the whole remaining array.
    while True:
        hi = n if n - lo <= 2 * FIFO_BLOCK else lo + FIFO_BLOCK
        converged = False
        for _ in range(FIFO_SWEEP_CAP):
            a = admit[lo:hi]
            w = work[lo:hi]
            cur = starts[lo:hi]
            m = hi - lo
            F = cur + w
            fprev = np.empty(m)
            fprev[0] = s_fprev
            fprev[1:] = F[:-1]
            s_max = s_kept if s_kept > s_fprev else s_fprev
            kept = np.empty(m)
            kept[0] = s_kept
            if m > 1:
                kept[1] = s_max
            cm = None
            if m > 2:
                cm = np.maximum.accumulate(F[: m - 2])
                np.maximum(cm, s_max, out=kept[2:])
            new = np.maximum(a, np.minimum(kept, fprev))
            diff = new != cur
            d0 = int(np.argmax(diff))
            if not diff[d0]:
                converged = True
                break
            starts[lo + d0 : hi] = new[d0:]
            if d0:
                # positions before the first change are now final:
                # advance the window, re-seed from their finish times
                if d0 == 1:
                    s_kept = s_max
                else:
                    assert cm is not None
                    c = float(cm[d0 - 2])
                    s_kept = c if c > s_max else s_max
                s_fprev = float(F[d0 - 1])
                lo += d0
        if not converged:
            # a cascade deeper than the cap: scan the rest of the block;
            # positions before ``lo`` are final, and the core-free pair
            # there is {max(0, F[0..lo-2]), F[lo-1]}
            rest, _ = _fifo_reference(
                admit[lo:hi], work[lo:hi], [s_kept, s_fprev]
            )
            starts[lo:hi] = rest
        if hi >= n:
            return starts
        # block finalized: roll the seeds forward across it
        Ff = starts[lo:hi] + work[lo:hi]
        s_max = s_kept if s_kept > s_fprev else s_fprev
        if Ff.size > 1:
            bmx = float(np.max(Ff[:-1]))
            if bmx > s_max:
                s_max = bmx
        s_kept = s_max
        s_fprev = float(Ff[-1])
        lo = hi


def _fifo_reference(
    admit: np.ndarray,
    work: np.ndarray,
    free: Optional[list[float]] = None,
) -> tuple[np.ndarray, list[float]]:
    """The scalar two-core claim scan: starts and the final core-free pair.

    Each job claims the earlier-free core, ties to core 0 (the event
    loop's first-minimum rule).  ``free`` is the ``[f0, f1]`` pair
    before the first job (both idle at 0 when ``None``).
    """
    f0, f1 = (0.0, 0.0) if free is None else free
    starts: list[float] = []
    push = starts.append
    for a, w in zip(admit.tolist(), work.tolist()):
        if f0 <= f1:
            st = a if a > f0 else f0
            f0 = st + w
        else:
            st = a if a > f1 else f1
            f1 = st + w
        push(st)
    return np.array(starts, dtype=np.float64), [f0, f1]


def _fifo_patch(
    admit: np.ndarray,
    work: np.ndarray,
    starts: np.ndarray,
    P: np.ndarray,
    span_lo: np.ndarray,
    span_hi: np.ndarray,
) -> Optional[list[int]]:
    """Exactly repair the FIFO fixpoint around the affected spans.

    ``starts`` holds the previous fixpoint everywhere except inside the
    given (inclusive, ascending, disjoint) spans, where admits or claim
    order changed.  The recurrence is strictly causal, so a single
    left-to-right *scalar walk* from each span computes final values
    directly — no fixpoint sweeps.  The walk carries ``kept = max(0,
    F[0..k-2])`` and ``fprev = F[k-1]`` as scalars, seeds them from the
    untouched prefix and the cached lagged prefix max ``P`` (``P[k] =
    max(0, F[0..k-1])``), and stops at the first position past the span
    whose start and ``P`` entry both come out unchanged: from there on
    every input to every later position is unchanged, so the old
    fixpoint stands (earliest possible rejoin).  Pure Python float arithmetic — the same IEEE
    doubles as the reference event loop.  ``starts`` and ``P`` are
    updated in place; returns the changed positions, or ``None`` when
    the walk overran its budget (caller falls back to the blocked
    vectorized solve — exact either way, and partially written values
    are already final, so the fallback's warm init stays sound).
    """
    n = int(admit.size)
    los = span_lo.tolist()
    his = span_hi.tolist()
    ns = len(los)
    si = 0
    done = 0  # positions < done are repaired and final
    changed: list[int] = []
    budget = 4 * int(np.sum(span_hi - span_lo + 1)) + 2048
    walked = 0
    while si < ns:
        a = los[si]
        bmax = his[si]
        si += 1
        if bmax < done:
            continue
        lo = a if a > done else done
        if lo > 0:
            fprev = float(starts[lo - 1]) + float(work[lo - 1])
            kept = float(P[lo - 1])
        else:
            fprev = 0.0
            kept = 0.0
        k = lo
        ch = bmax - k + 17  # first chunk just covers the span
        stop = False
        while not stop and k < n:
            if ch < 16:
                ch = 16
            elif ch > 4096:
                ch = 4096
            ke = min(n, k + ch)
            a_l = admit[k:ke].tolist()
            w_l = work[k:ke].tolist()
            s_l = starts[k:ke].tolist()
            p_l = P[k:ke].tolist()
            stbuf: list[float] = []
            pbuf: list[float] = []
            i = 0
            cl = ke - k
            while i < cl:
                kk = k + i
                while si < ns and los[si] <= kk:
                    if his[si] > bmax:
                        bmax = his[si]
                    si += 1
                nk = kept if kept > fprev else fprev  # next P[kk]
                mn = kept if kept < fprev else fprev
                ai = a_l[i]
                s_ = ai if ai > mn else mn
                so = s_l[i]
                if kk > bmax and s_ == so and nk == p_l[i]:
                    stop = True
                    done = kk
                    break
                if s_ != so:
                    changed.append(kk)
                stbuf.append(s_)
                pbuf.append(nk)
                kept = nk
                fprev = s_ + w_l[i]
                i += 1
            if i:
                starts[k : k + i] = stbuf
                P[k : k + i] = pbuf
                walked += i
                if walked > budget:
                    return None
            k += i
            ch = ch * 4
        if not stop:
            done = n
    return changed


def _fifo_patch_many(
    admit: np.ndarray,
    work: np.ndarray,
    starts: np.ndarray,
    P: np.ndarray,
    span_lo: np.ndarray,
    span_hi: np.ndarray,
) -> Optional[np.ndarray]:
    """Repair the FIFO fixpoint around *many* spans in lockstep.

    Same contract as :func:`_fifo_patch`, but the scalar walk state
    (``kept``, ``fprev``) is carried per span in arrays, so one numpy
    step advances every span by one position — the per-span Python
    overhead of the scalar walk vanishes when thousands of small spans
    are in flight.  Writes are deferred: a span's buffered values are
    committed only once it rejoins the old fixpoint, and its rejoin
    tests therefore always compare against pristine old values.  A span
    whose cascade reaches the next span's first position (or outlives
    the iteration cap) is handed, left to right, to the scalar walk —
    whose absorption logic is built for exactly that — after all
    committed spans are applied.  Commits can't invalidate each other:
    a span rejoining before the next span's seed position never wrote
    that seed, and tested positions never overlap another span's
    writes.  A handed-off cascade can still run over a later committed
    span, seeded before the cascade reached it; the scalar walk
    rewrites it, and a position it puts back at its old start is not
    reported.  Returns the changed positions, or ``None`` on a blown
    budget (partially committed values are exact finals, so the
    caller's warm full solve stays sound).
    """
    n = int(admit.size)
    ns = int(span_lo.size)
    nxt = np.empty(ns, dtype=np.int64)
    nxt[:-1] = span_lo[1:]
    nxt[-1] = n
    fprev = np.zeros(ns)
    kept = np.zeros(ns)
    seeded = span_lo > 0
    pl = span_lo[seeded] - 1
    fprev[seeded] = starts[pl] + work[pl]
    kept[seeded] = P[pl]
    kk = span_lo.astype(np.int64, copy=True)
    active = np.ones(ns, dtype=bool)
    finished = np.zeros(ns, dtype=bool)
    rec_k: list[np.ndarray] = []
    rec_s: list[np.ndarray] = []
    rec_p: list[np.ndarray] = []
    rec_sid: list[np.ndarray] = []
    rec_ch: list[np.ndarray] = []
    for _ in range(_PATCH_LOCKSTEP_CAP):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        k_a = kk[idx]
        inb = k_a < nxt[idx]
        ran_off = ~inb & (k_a >= n)
        if ran_off.any():
            # walked off the end of the schedule: success, by the same
            # rule as the scalar walk's end-of-array stop
            finished[idx[ran_off]] = True
        if not inb.all():
            # the rest hit the next span's first position: leave them
            # unfinished for the scalar walk
            active[idx[~inb]] = False
            idx = idx[inb]
            if idx.size == 0:
                break
            k_a = kk[idx]
        kp = kept[idx]
        fp = fprev[idx]
        nk = np.maximum(kp, fp)
        mn = np.minimum(kp, fp)
        s_ = np.maximum(admit[k_a], mn)
        so = starts[k_a]
        rej = (k_a > span_hi[idx]) & (s_ == so) & (nk == P[k_a])
        if rej.any():
            finished[idx[rej]] = True
            active[idx[rej]] = False
            go = ~rej
            idx = idx[go]
            k_a = k_a[go]
            s_ = s_[go]
            nk = nk[go]
            so = so[go]
        if idx.size:
            rec_k.append(k_a)
            rec_s.append(s_)
            rec_p.append(nk)
            rec_sid.append(idx)
            rec_ch.append(s_ != so)
            kept[idx] = nk
            fprev[idx] = s_ + work[k_a]
            kk[idx] = k_a + 1
    chk = np.empty(0, dtype=np.int64)
    old = np.empty(0)
    if rec_k:
        kall = np.concatenate(rec_k)
        sall = np.concatenate(rec_s)
        keep = finished[np.concatenate(rec_sid)]
        kc = kall[keep]
        chk = kc[np.concatenate(rec_ch)[keep]]
        old = starts[chk]
        starts[kc] = sall[keep]
        P[kc] = np.concatenate(rec_p)[keep]
    unfin = ~finished
    if not unfin.any():
        return chk
    wchg = _fifo_patch(
        admit, work, starts, P, span_lo[unfin], span_hi[unfin]
    )
    if wchg is None:
        return None
    # a cascade the scalar walk carries over a committed span may put
    # some of its starts back: such a position reports no change, and a
    # position both paths changed reports once
    walked = np.asarray(wchg, dtype=np.int64)
    return np.concatenate(
        (chk[starts[chk] != old], walked[~np.isin(walked, chk)])
    )


def _core_free_final(starts: np.ndarray, work: np.ndarray) -> list[float]:
    """Final per-core free times, in core-index order, from the
    committed schedule — bit-identical to the event loop's argmin walk.

    The claim sequence is reconstructed in closed form: the pair
    before job ``i`` holds ``{kept_i, F[i-1]}`` with
    ``kept_i = max(0, F[0..i-2])``; job ``i`` lands on the newest job's
    core when ``F[i-1] < kept_i`` (no flip), on the other core when
    greater (flip), and on core 0 on an exact value tie (``np.argmin``
    picks the first minimum of equal values).  The core of the last job
    is then a parity prefix with resets at ties — all NumPy.
    """
    n = int(starts.size)
    if n == 0:
        return [0.0, 0.0]
    F = starts + work
    if n == 1:
        return [float(F[0]), 0.0]
    kept = np.empty(n)
    kept[0] = 0.0
    kept[1] = 0.0
    if n > 2:
        np.maximum.accumulate(F[: n - 2], out=kept[2:])
    fprev = F[: n - 1]
    k = kept[1:]
    flip = (fprev > k).astype(np.int64)
    cs = np.cumsum(flip)
    tie = fprev == k
    if tie.any():
        base = np.where(tie, cs, 0)
        np.maximum.accumulate(base, out=base)
        c_last = int((cs[-1] - base[-1]) & 1)
    else:
        c_last = int(cs[-1] & 1)
    pair = [0.0, 0.0]
    pair[c_last] = float(F[-1])
    other = kept[-1] if kept[-1] > F[n - 2] else F[n - 2]
    pair[1 - c_last] = float(other)
    return pair


def _lagged_finish_max(starts: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``P[k] = max(0, F[0..k-1])`` over the finish times ``F = starts +
    work`` (length ``n + 1``): the seeds of the patch walks."""
    P = np.empty(starts.size + 1)
    P[0] = 0.0
    np.add(starts, work, out=P[1:])
    np.maximum.accumulate(P[1:], out=P[1:])
    return P


# ---------------------------------------------------------------------------
# Shard slices and per-shard state
# ---------------------------------------------------------------------------

_Exports = list[tuple[int, np.ndarray, np.ndarray]]
_StartExports = list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]


@dataclass
class ShardSlice:
    """The static slice of one slot owned by a single region shard.

    Row-side arrays cover the shard's *requests* (those homed in the
    region); node-side arrays cover the invocations landing on the
    shard's *nodes* — including invocations exported by other shards.
    Invocations are keyed by their global flat rank
    ``row_position * width + chain_position``, the deterministic
    tie-break order of same-node ready ties.
    """

    region: int
    n_regions: int
    width: int
    rows: np.ndarray            # global row positions (ascending)
    at_rows: np.ndarray
    lengths: np.ndarray
    first_ready: np.ndarray
    transfer: np.ndarray
    service: np.ndarray
    cloud_mask: np.ndarray
    ret: np.ndarray
    # row-side edge invocations (ascending rank)
    re_row: np.ndarray          # local row index
    re_col: np.ndarray
    re_rank: np.ndarray
    re_s: np.ndarray
    re_dst: np.ndarray          # region owning the target node
    # node-side invocations (ascending rank)
    ne_rank: np.ndarray
    ne_node: np.ndarray
    ne_svc: np.ndarray
    ne_s: np.ndarray
    ne_pooled: np.ndarray
    ne_src: np.ndarray          # region owning the request
    node_ids: np.ndarray        # nodes of this region (ascending)
    groups: np.ndarray          # pooled (svc, node) keys on these nodes
    carried: np.ndarray
    keep_alive: float
    cold_penalty: float
    M: np.int64

    @classmethod
    def from_plan(
        cls, plan: ReplayPlan, ann: "_PlanRegions", region: int
    ) -> "ShardSlice":
        """Carve one region's slice out of a full plan."""
        region_map = ann.region_map
        rows = np.nonzero(ann.row_region == region)[0]
        row_pos = np.full(plan.n_req, -1, dtype=np.int64)
        row_pos[rows] = np.arange(rows.size)

        re_sel = np.nonzero(ann.e_row_region == region)[0]
        ne_sel = np.nonzero(ann.v_region == region)[0]

        node_ids = region_map.nodes_of(region)
        g_mask = np.isin(ann.g_node, node_ids)
        return cls(
            region=region,
            n_regions=region_map.n_regions,
            width=plan.width,
            rows=rows,
            at_rows=plan.at[rows],
            lengths=plan.lengths[rows],
            first_ready=plan.first_ready[rows],
            transfer=plan.transfer[rows],
            service=plan.service[rows],
            cloud_mask=plan.cloud_mask[rows],
            ret=plan.ret[rows],
            re_row=row_pos[plan.e_rows[re_sel]],
            re_col=plan.e_cols[re_sel],
            re_rank=ann.ranks[re_sel],
            re_s=plan.s_edge[re_sel],
            re_dst=ann.v_region[re_sel],
            ne_rank=ann.ranks[ne_sel],
            ne_node=plan.v_edge[ne_sel],
            ne_svc=plan.svc_edge[ne_sel],
            ne_s=plan.s_edge[ne_sel],
            ne_pooled=plan.pooled[ne_sel],
            ne_src=ann.e_row_region[ne_sel],
            node_ids=node_ids,
            groups=plan.groups[g_mask],
            carried=plan.carried[g_mask],
            keep_alive=plan.keep_alive,
            cold_penalty=plan.cold_penalty,
            M=plan.M,
        )


@dataclass(frozen=True)
class _PlanRegions:
    """Region-independent annotations of a plan under one region map,
    shared by every region's :meth:`ShardSlice.from_plan` carve."""

    region_map: RegionMap
    row_region: np.ndarray      # region of each request's home node
    ranks: np.ndarray           # flat rank of each edge invocation
    e_row_region: np.ndarray    # region owning each edge invocation's request
    v_region: np.ndarray        # region owning each edge invocation's node
    g_node: np.ndarray          # node of each pooled (svc, node) group


@dataclass
class ShardCommit:
    """Per-shard commit payload returned by :meth:`RegionShard.finalize`."""

    rows: np.ndarray
    finish: np.ndarray
    queueing: np.ndarray
    cold: np.ndarray
    busy: dict
    core_free: dict
    cells: tuple                # (service, node) index arrays of the groups
    group_last: np.ndarray      # each group's last invocation time
    n_cold: int
    n_warm: int
    tied: bool
    n_local: int
    n_boundary: int


@dataclass
class _NodeCache:
    """One node's claim-order state, reused across re-simulations.

    All arrays are aligned with the claim order (``ready``-sorted,
    ties by ascending rank).  As long as the order stays a valid stable
    sort after a ready update, re-simulation only patches the changed
    positions instead of re-sorting and re-gathering the whole node.
    """

    order: np.ndarray  # claim order (argsort of ready within the node)
    inv: np.ndarray  # inverse permutation: node-local idx -> claim pos
    sel: np.ndarray  # global ne positions in claim order
    r_s: np.ndarray  # ready times, claim order
    w_s: np.ndarray  # service times, claim order
    pen_s: np.ndarray  # cold-start penalties, claim order
    adm: np.ndarray  # admit times (ready + penalty), claim order
    st_s: np.ndarray  # start times, claim order
    gcl: np.ndarray  # group index per claim position (-1 = not pooled)
    gmo: np.ndarray  # pooled claim positions grouped by pool group, each
    # group's block sorted ascending (= per-group warmth chain order)
    gmoff: np.ndarray  # group g's block is gmo[gmoff[g]:gmoff[g + 1]]
    ties: int  # count of same-value adjacent pairs in ``r_s``
    P: np.ndarray  # lagged prefix max of finish: P[k] = max(0, F[0..k-1])


class _ShardTelemetry:
    """Per-shard telemetry accumulator (allocated only while tracing).

    ``counters`` holds *deterministic* event counts — pure functions of
    the replay inputs.  ``phase_elapsed``/``phase_calls`` hold
    wall-clock accumulators per protocol phase, emitted as one
    synthetic ``shard<k>`` span by :meth:`RegionShard.flush_telemetry`.
    """

    __slots__ = ("counters", "phase_elapsed", "phase_calls")

    def __init__(self) -> None:
        self.counters = {
            "node_sims": 0,
            "cache_rebuilds": 0,
            "cache_splices": 0,
        }
        self.phase_elapsed: dict[str, float] = {}
        self.phase_calls: dict[str, int] = {}

    def note_phase(self, phase: str, elapsed: float) -> None:
        """Accumulate one timed call of the named protocol phase."""
        self.phase_elapsed[phase] = self.phase_elapsed.get(phase, 0.0) + elapsed
        self.phase_calls[phase] = self.phase_calls.get(phase, 0) + 1


class RegionShard:
    """One region's live replay state: nodes, pools, rows, exchanges.

    :func:`run_sharded_rounds` drives the protocol steps (:meth:`begin`,
    then :meth:`step_sim` / :meth:`step_prop` per round, then
    :meth:`finalize`).  When the ambient tracer is enabled at
    construction time the shard accumulates telemetry
    (:class:`_ShardTelemetry`) and emits it into that tracer via
    :meth:`flush_telemetry`.
    """

    def __init__(self, slc: ShardSlice):
        self.slc = slc
        self.region = slc.region
        n_rows = int(slc.rows.size)
        n_re = int(slc.re_rank.size)
        n_ne = int(slc.ne_rank.size)
        self.ready = np.zeros((n_rows, slc.width))
        self.re_start = np.zeros(n_re)
        self.re_pen = np.zeros(n_re)
        self.ne_r = np.zeros(n_ne)
        self.ne_pen = np.zeros(n_ne)
        self.ne_start = np.zeros(n_ne)
        self._finish = np.zeros((n_rows, slc.width))
        # per owned node: indices into the ne arrays (ascending rank)
        self.node_idx = {
            int(v): np.nonzero(slc.ne_node == v)[0] for v in slc.node_ids
        }
        # ne position -> index within its node's idx block (idx blocks
        # are ascending, so this replaces a per-round searchsorted)
        self._ne_local_i = np.empty(n_ne, dtype=np.int64)
        for idx in self.node_idx.values():
            self._ne_local_i[idx] = np.arange(idx.size)
        # group index of each pooled invocation (-1 when not pooled)
        self._g_of_ne = np.full(n_ne, -1, dtype=np.int64)
        pooled_pos = np.nonzero(slc.ne_pooled)[0]
        if pooled_pos.size:
            keys = slc.ne_svc[pooled_pos] * slc.M + slc.ne_node[pooled_pos]
            self._g_of_ne[pooled_pos] = np.searchsorted(slc.groups, keys)
        self.group_last = np.full(slc.groups.size, np.nan)
        self.group_cold = np.zeros(slc.groups.size, dtype=np.int64)
        self.group_warm = np.zeros(slc.groups.size, dtype=np.int64)
        # last computed warmth per invocation (ne-indexed, so it survives
        # claim-order permutations); lets the incremental path turn a
        # recomputed warm bit into a counter delta
        self._ne_warm = np.zeros(n_ne, dtype=bool)
        self.tied = {v: False for v in self.node_idx}
        self._simmed = {v: False for v in self.node_idx}
        # CSR of row-side invocations by local row (re_row is ascending)
        self.row_ptr = np.searchsorted(
            slc.re_row, np.arange(n_rows + 1)
        )
        # dirty tracking: ne positions whose ready changed since the
        # last sim step, and local rows needing re-propagation
        self._changed_chunks: list[np.ndarray] = []
        self._node_cache: dict[int, _NodeCache] = {}
        self._pending_rows = np.ones(n_rows, dtype=bool)
        self._prop_changed = np.zeros(n_rows, dtype=bool)
        # foreign exchange bookkeeping: send-on-change (NaN = never sent,
        # so the first export ships every foreign ready)
        self._re_foreign = np.nonzero(slc.re_dst != slc.region)[0]
        self._re_sent_vals = np.full(n_re, np.nan)
        self._ne_foreign = np.nonzero(slc.ne_src != slc.region)[0]
        # local fast path: row invocations on own nodes map 1:1 to ne rows
        local = np.nonzero(slc.re_dst == slc.region)[0]
        self._re_local = local
        self._ne_of_local = np.searchsorted(slc.ne_rank, slc.re_rank[local])
        self._ne_of_re = np.full(n_re, -1, dtype=np.int64)
        self._ne_of_re[local] = self._ne_of_local
        self._re_of_ne = np.full(n_ne, -1, dtype=np.int64)
        self._re_of_ne[self._ne_of_local] = local
        # ne positions whose start/penalty changed in the last sim step
        self._start_changed: list[np.ndarray] = []
        # telemetry only exists while the ambient tracer is enabled, so
        # disabled runs pay a single None check per protocol call
        self._telemetry = (
            _ShardTelemetry() if current_tracer().enabled else None
        )

    def _timed(self, phase: str, fn, *args):
        """Run one protocol phase, accumulating wall time when traced."""
        tel = self._telemetry
        if tel is None:
            return fn(*args)
        t0 = time.perf_counter()
        out = fn(*args)
        tel.note_phase(phase, time.perf_counter() - t0)
        return out

    # -- protocol steps -------------------------------------------------
    def begin(self) -> _Exports:
        """Initialize with the congestion-free bound; export readies."""
        return self._timed("begin", self._begin_impl)

    def _begin_impl(self) -> _Exports:
        slc = self.slc
        ready = np.zeros((slc.rows.size, slc.width))
        if slc.rows.size:
            ready[:, 0] = slc.first_ready
            for j in range(slc.width - 1):
                free_finish = ready[:, j] + slc.service[:, j]
                ready[:, j + 1] = np.where(
                    slc.lengths > j + 1,
                    ready[:, j] + (
                        (free_finish - ready[:, j]) + slc.transfer[:, j]
                    ),
                    0.0,
                )
        self.ready = ready
        return self._export_ready()

    def _export_ready(
        self, re_positions: Optional[np.ndarray] = None
    ) -> _Exports:
        """Flow ready values out of the rows at the given re positions
        (all of them when ``None``): local ones update ``ne_r`` in
        place, foreign ones are bucketed per destination region.  Only
        genuinely changed values move — the rest are already current on
        the receiving side."""
        slc = self.slc
        p = (
            np.arange(slc.re_rank.size)
            if re_positions is None
            else re_positions
        )
        if p.size == 0:
            return []
        vals = self.ready[slc.re_row[p], slc.re_col[p]]
        nol = self._ne_of_re[p]
        localm = nol >= 0
        lp = nol[localm]
        if lp.size:
            lv = vals[localm]
            ch = lv != self.ne_r[lp]
            if ch.any():
                wpos = lp[ch]
                self.ne_r[wpos] = lv[ch]
                self._changed_chunks.append(wpos)
        out: _Exports = []
        fm = ~localm
        if fm.any():
            fpos = p[fm]
            fv = vals[fm]
            chf = fv != self._re_sent_vals[fpos]
            if chf.any():
                spos = fpos[chf]
                sv = fv[chf]
                self._re_sent_vals[spos] = sv
                dsts = slc.re_dst[spos]
                for d in np.unique(dsts).tolist():
                    pick = dsts == d
                    out.append(
                        (int(d), slc.re_rank[spos[pick]], sv[pick])
                    )
        return out

    def step_sim(
        self, imports: Optional[tuple[np.ndarray, np.ndarray]]
    ) -> _StartExports:
        """Import foreign readies, re-simulate changed nodes, export
        the start/penalty values of foreign-owned invocations."""
        return self._timed("step_sim", self._step_sim_impl, imports)

    def _step_sim_impl(
        self, imports: Optional[tuple[np.ndarray, np.ndarray]]
    ) -> _StartExports:
        slc = self.slc
        chunks = self._changed_chunks
        self._changed_chunks = []
        if imports is not None and imports[0].size:
            pos = np.searchsorted(slc.ne_rank, imports[0])
            self.ne_r[pos] = imports[1]
            chunks.append(pos)
        # nodes to (re)simulate: any with a changed input, plus any with
        # invocations never simulated (the first round covers them all)
        by_node: dict[int, Optional[np.ndarray]] = {}
        if chunks:
            allpos = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            owners = slc.ne_node[allpos]
            grp = np.argsort(owners, kind="stable")
            allpos = allpos[grp]
            owners = owners[grp]
            cuts = np.nonzero(owners[1:] != owners[:-1])[0] + 1
            first_of = np.concatenate(([0], cuts))
            bounds = np.append(cuts, owners.size)
            for b0, b1 in zip(first_of.tolist(), bounds.tolist()):
                by_node[int(owners[b0])] = allpos[b0:b1]
        for v, done in self._simmed.items():
            if not done and self.node_idx[v].size:
                by_node.setdefault(v, None)
        for v in sorted(by_node):
            self._sim_node(v, self.node_idx[v], by_node[v])
        return self._export_start()

    def _sim_node(
        self, v: int, idx: np.ndarray, chpos: Optional[np.ndarray]
    ) -> None:
        slc = self.slc
        first = not self._simmed[v]
        self._simmed[v] = True
        cache = self._node_cache.get(v)
        posc = None
        pchg = None
        span_a = span_b = None
        rebuild = first or cache is None
        if not rebuild:
            # incremental path: late in the fixpoint a changed ready
            # value moves only a short distance in the claim order, so
            # re-sort *locally*: each changed element's old position and
            # value-insertion range bound a span; merged spans contain
            # every displacement (interacting moves overlap by value
            # range), so a stable local sort of each span reproduces the
            # exact global stable order.  Boundary checks guard the
            # argument — any violation falls back to a full rebuild.
            assert chpos is not None
            m = int(cache.r_s.size)
            within = self._ne_local_i[chpos]
            posc_old = cache.inv[within]
            newvals = self.ne_r[chpos]
            r_s = cache.r_s
            L = np.searchsorted(r_s, newvals, side="left")
            R = np.searchsorted(r_s, newvals, side="right")
            lo_i = np.minimum(posc_old, L)
            hi_i = np.minimum(np.maximum(posc_old, R), m - 1)
            o = np.argsort(lo_i, kind="stable")
            lo_s = lo_i[o]
            hi_s = hi_i[o]
            run = np.maximum.accumulate(hi_s)
            head = np.empty(lo_s.size, dtype=bool)
            head[0] = True
            # merge overlapping *and* adjacent spans so the tie-pair
            # ranges below stay disjoint
            np.greater(lo_s[1:], run[:-1] + 1, out=head[1:])
            span_a = lo_s[head]
            span_b = np.maximum.reduceat(hi_s, np.nonzero(head)[0])
            sizes = span_b - span_a + 1
            csum = np.cumsum(sizes)
            total = int(csum[-1])
            if total * 4 > m:
                # spans cover too much of the node — a fresh argsort
                # has better constants than splicing
                rebuild = True
                span_a = span_b = None
            else:
                # flat positions of every span, with a span id per
                # position so one lexsort re-sorts all spans at once
                offs = np.concatenate(([0], csum[:-1]))
                flat = np.arange(total) + np.repeat(span_a - offs, sizes)
                sid = np.repeat(np.arange(span_a.size), sizes)
                # tie pairs can only appear/vanish on pairs whose left
                # index is in [a-1, b] (clipped); spans merge when
                # adjacent, so these ranges are disjoint across spans
                pa = np.maximum(span_a - 1, 0)
                pb = np.minimum(span_b, m - 2)
                pkeep = pb >= pa
                psz = (pb - pa + 1)[pkeep]
                pcs = np.cumsum(psz)
                flatp = np.arange(int(pcs[-1])) + np.repeat(
                    pa[pkeep] - np.concatenate(([0], pcs[:-1])), psz
                ) if psz.size else np.empty(0, dtype=np.int64)
                old_eq = int(
                    np.count_nonzero(r_s[flatp] == r_s[flatp + 1])
                )
                # pooled members inside the spans, before the splice —
                # their gmo slots are found by searching their *old*
                # positions, so capture them now
                gclf = cache.gcl[flat]
                pmo = gclf >= 0
                p_old = flat[pmo]
                g_old = gclf[pmo]
                r_s[posc_old] = newvals
                order = cache.order
                perm = np.lexsort((order[flat], r_s[flat], sid))
                src = flat[perm]
                moved = not np.array_equal(src, flat)
                if moved:
                    r_s[flat] = r_s[src]
                    order[flat] = order[src]
                    cache.sel[flat] = cache.sel[src]
                    cache.w_s[flat] = cache.w_s[src]
                    cache.pen_s[flat] = cache.pen_s[src]
                    cache.adm[flat] = cache.adm[src]
                    cache.st_s[flat] = cache.st_s[src]
                    cache.gcl[flat] = cache.gcl[src]
                    cache.inv[order[flat]] = flat
                # each span must rejoin its neighbors in exact
                # stable-sort order (ascending values, ties by
                # ascending rank); a violation means content had to
                # cross a span boundary — rebuild instead (the
                # partially spliced cache stays element-wise
                # consistent, and the rebuild regathers everything
                # from the authoritative ne arrays)
                ok = True
                la = span_a[span_a > 0]
                if la.size:
                    ok = not bool(
                        np.any(
                            ~(
                                (r_s[la - 1] < r_s[la])
                                | (
                                    (r_s[la - 1] == r_s[la])
                                    & (order[la - 1] < order[la])
                                )
                            )
                        )
                    )
                if ok:
                    rb = span_b[span_b < m - 1]
                    if rb.size:
                        ok = not bool(
                            np.any(
                                ~(
                                    (r_s[rb] < r_s[rb + 1])
                                    | (
                                        (r_s[rb] == r_s[rb + 1])
                                        & (order[rb] < order[rb + 1])
                                    )
                                )
                            )
                        )
                if ok:
                    # same-value pairs appear/vanish only inside the
                    # spans — keep the tie count incremental
                    new_eq = int(
                        np.count_nonzero(r_s[flatp] == r_s[flatp + 1])
                    )
                    cache.ties += new_eq - old_eq
                    posc = cache.inv[within]
                    if p_old.size:
                        pchg = self._patch_warmth(
                            cache, p_old, g_old, flat, moved
                        )
                else:
                    rebuild = True
                    span_a = span_b = None
        if rebuild:
            r_v = self.ne_r[idx]
            order = np.argsort(r_v, kind="stable")
            inv = np.empty_like(order)
            inv[order] = np.arange(order.size)
            sel = idx[order]
            g_claim = self._g_of_ne[sel]
            pcl = np.nonzero(g_claim >= 0)[0]
            gvals = g_claim[pcl]
            kor = np.argsort(gvals, kind="stable")
            r_s = r_v[order]
            m0 = int(r_s.size)
            cache = _NodeCache(
                order=order,
                inv=inv,
                sel=sel,
                r_s=r_s,
                w_s=slc.ne_s[sel],
                # on the first sim the ne arrays are still all-zero —
                # skip two large scattered gathers
                pen_s=np.zeros(m0) if first else self.ne_pen[sel],
                adm=np.empty(0),
                st_s=np.zeros(m0) if first else self.ne_start[sel],
                gcl=g_claim,
                gmo=pcl[kor],
                gmoff=np.searchsorted(
                    gvals[kor], np.arange(slc.groups.size + 1)
                ),
                ties=int(np.count_nonzero(r_s[1:] == r_s[:-1])),
                P=np.empty(0),  # set by the FIFO solve below
            )
            self._node_cache[v] = cache
        tel = self._telemetry
        if tel is not None:
            # deterministic: rebuild-vs-splice is a pure function of the
            # replay inputs
            tel.counters["node_sims"] += 1
            key = "cache_rebuilds" if rebuild else "cache_splices"
            tel.counters[key] += 1
        r_s = cache.r_s
        m = int(r_s.size)
        # Exact same-node ready ties are event-order dependent; checked
        # at convergence (see run_sharded_rounds) using each node's last
        # sim.
        self.tied[v] = cache.ties > 0

        # Pool warmth.  On a rebuild every group is recomputed from
        # scratch; the incremental splice path instead patched exactly
        # the affected members in ``_patch_warmth`` above (clean groups'
        # inputs are unchanged, so their penalties, counters and final
        # invocation stand as computed).  The grouped member layout
        # ``gmo`` is already in the (group, ready, rank) order in which
        # the event loop's pool sees each group's invocations — no
        # per-sim sort needed.
        if rebuild and cache.gmo.size:
            gmoff = cache.gmoff
            sizes_g = np.diff(gmoff)
            nz = np.nonzero(sizes_g > 0)[0]
            ps = cache.gmo
            times = r_s[ps]
            mk = int(ps.size)
            starts_of = gmoff[:-1][nz]
            # a group's first member compares against its carried
            # last-use time; seeding ``prev`` there folds both cases
            # into one rule
            prev = np.empty(mk)
            prev[1:] = times[:-1]
            prev[starts_of] = slc.carried[nz]
            warm = (times - prev) <= slc.keep_alive
            cold = ~warm
            if first:
                # penalties are all still zero, so the cold members are
                # exactly the changes
                if slc.cold_penalty != 0.0:
                    pchg = ps[cold]
                    cache.pen_s[pchg] = slc.cold_penalty
            else:
                penvals = np.where(warm, 0.0, slc.cold_penalty)
                pen_ch = penvals != cache.pen_s[ps]
                if pen_ch.any():
                    # ne_pen itself is updated by the export compare
                    # below, which needs the old values to detect the
                    # change
                    pchg = ps[pen_ch]
                    cache.pen_s[pchg] = penvals[pen_ch]
            self._ne_warm[cache.sel[ps]] = warm
            self.group_last[nz] = times[gmoff[1:][nz] - 1]
            n_cold_g = np.add.reduceat(cold.astype(np.int64), starts_of)
            self.group_cold[nz] = n_cold_g
            self.group_warm[nz] = sizes_g[nz] - n_cold_g

        if rebuild:
            cache.adm = r_s + cache.pen_s
            init = None if first else cache.st_s
            cache.st_s = _fifo_starts(cache.adm, cache.w_s, init, 0)
            cache.P = _lagged_finish_max(cache.st_s, cache.w_s)
            cand_parts = [np.arange(m)]
        else:
            # only positions with a changed ready or penalty can have a
            # changed admit
            upd = posc if pchg is None else np.concatenate((posc, pchg))
            cache.adm[upd] = r_s[upd] + cache.pen_s[upd]
            # the FIFO must re-solve wherever the admit *or* the claim
            # sequence changed: the splice spans plus penalty-only
            # positions (as singleton spans), merged
            if pchg is None:
                fa, fb = span_a, span_b
            else:
                a2 = np.concatenate((span_a, pchg))
                b2 = np.concatenate((span_b, pchg))
                o2 = np.argsort(a2, kind="stable")
                a2 = a2[o2]
                b2 = b2[o2]
                run2 = np.maximum.accumulate(b2)
                head2 = np.empty(a2.size, dtype=bool)
                head2[0] = True
                np.greater(a2[1:], run2[:-1] + 1, out=head2[1:])
                fa = a2[head2]
                fb = np.maximum.reduceat(b2, np.nonzero(head2)[0])
            wchg = None
            if m >= 32:
                wchg = _fifo_patch_many(
                    cache.adm, cache.w_s, cache.st_s, cache.P, fa, fb
                )
            if wchg is None:
                # short node, or the walk overran its budget (deep
                # cascade): full warm solve — the prefix before the
                # first affected span is final
                lo0 = int(fa[0])
                cache.st_s = _fifo_starts(
                    cache.adm, cache.w_s, cache.st_s, lo0
                )
                cache.P = _lagged_finish_max(cache.st_s, cache.w_s)
                cand_parts = [np.arange(lo0, m)]
            else:
                # the walk visits (and start-compares) every span
                # position, so per-element changes are exactly the
                # walk's changed positions plus the penalty changes;
                # the splice ``flat`` rides along as defense in depth
                cand_parts = [flat]
                if wchg.size:
                    cand_parts.append(wchg)
                if pchg is not None:
                    cand_parts.append(pchg)
        # unified export compare: scatter starts/penalties that really
        # changed vs. the authoritative per-element ne arrays, and hand
        # exactly those positions to the start exporter
        if first:
            # round 1: essentially every start is fresh — export the
            # node wholesale instead of comparing against the all-zero
            # ne arrays (a spurious entry just re-sends an unchanged
            # value, which the receiving row recompute absorbs)
            self.ne_start[cache.sel] = cache.st_s
            self.ne_pen[cache.sel] = cache.pen_s
            self._start_changed.append(cache.sel)
            return
        cand = (
            cand_parts[0]
            if len(cand_parts) == 1
            else np.unique(np.concatenate(cand_parts))
        )
        if cand.size:
            nepos = cache.sel[cand]
            chm = (cache.st_s[cand] != self.ne_start[nepos]) | (
                cache.pen_s[cand] != self.ne_pen[nepos]
            )
            if chm.any():
                cp = cand[chm]
                npos = nepos[chm]
                self.ne_start[npos] = cache.st_s[cp]
                self.ne_pen[npos] = cache.pen_s[cp]
                self._start_changed.append(npos)

    def _patch_warmth(
        self,
        cache: _NodeCache,
        p_old: np.ndarray,
        g_old: np.ndarray,
        flat: np.ndarray,
        moved: bool,
    ) -> Optional[np.ndarray]:
        """Re-derive pool warmth for exactly the members a splice can
        affect, updating the grouped layout, counters and penalties.

        Warmth is pairwise — ``warm[k]`` depends only on member ``k``'s
        ready time and its in-group predecessor's — so only members
        inside the spans (times and in-group ranks may change) and their
        in-group successors (predecessor time or identity may change)
        need recomputing; every other member's inputs are untouched.
        Returns the claim positions whose penalty changed (or ``None``).
        """
        slc = self.slc
        r_s = cache.r_s
        gmo = cache.gmo
        gmoff = cache.gmoff
        if moved:
            gclf = cache.gcl[flat]
            pmn = gclf >= 0
            p_new = flat[pmn]
            g_new = gclf[pmn]
        else:
            p_new, g_new = p_old, g_old
        tg = np.unique(g_old)
        aff_sl = []
        aff_g = []
        for g in tg.tolist():
            base = int(gmoff[g])
            end = int(gmoff[g + 1])
            og = p_old[g_old == g]
            sl = base + np.searchsorted(gmo[base:end], og)
            if moved:
                # per-(span, group) membership is preserved and both
                # sides are ascending, so the block swap keeps the
                # group's slots sorted
                gmo[sl] = p_new[g_new == g]
            aff = np.unique(np.concatenate((sl, sl + 1)))
            aff = aff[aff < end]
            aff_sl.append(aff)
            aff_g.append(np.full(aff.size, g, dtype=np.int64))
        A = np.concatenate(aff_sl)
        ga = np.concatenate(aff_g)
        jpos = gmo[A]
        isf = A == gmoff[ga]
        prevpos = gmo[np.maximum(A - 1, 0)]
        times = r_s[jpos]
        warm = np.where(
            isf,
            (times - slc.carried[ga]) <= slc.keep_alive,
            (times - r_s[prevpos]) <= slc.keep_alive,
        )
        nej = cache.sel[jpos]
        oldw = self._ne_warm[nej]
        dw = warm != oldw
        if dw.any():
            self._ne_warm[nej[dw]] = warm[dw]
            d = np.where(warm[dw], -1, 1)
            np.add.at(self.group_cold, ga[dw], d)
            np.add.at(self.group_warm, ga[dw], -d)
        # a group's final invocation is its last slot; times only change
        # inside the spans, so refreshing the touched groups suffices
        self.group_last[tg] = r_s[gmo[gmoff[tg + 1] - 1]]
        penv = np.where(warm, 0.0, slc.cold_penalty)
        pen_ch = penv != cache.pen_s[jpos]
        if not pen_ch.any():
            return None
        pchg = jpos[pen_ch]
        cache.pen_s[pchg] = penv[pen_ch]
        return pchg

    def _export_start(self) -> _StartExports:
        """Flow the start/penalty values that changed in this sim step
        back to their rows: local rows update in place (and re-enter
        propagation), foreign ones are bucketed per home region."""
        slc = self.slc
        chunks = self._start_changed
        self._start_changed = []
        if not chunks:
            return []
        pos = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        rp = self._re_of_ne[pos]
        localm = rp >= 0
        lrp = rp[localm]
        if lrp.size:
            lpos = pos[localm]
            self.re_start[lrp] = self.ne_start[lpos]
            self.re_pen[lrp] = self.ne_pen[lpos]
            self._pending_rows[slc.re_row[lrp]] = True
        out: _StartExports = []
        fm = ~localm
        if fm.any():
            fpos = pos[fm]
            srcs = slc.ne_src[fpos]
            for d in np.unique(srcs).tolist():
                pick = fpos[srcs == d]
                out.append(
                    (
                        int(d),
                        slc.ne_rank[pick],
                        self.ne_start[pick],
                        self.ne_pen[pick],
                    )
                )
        return out

    def step_prop(
        self,
        imports: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> tuple[bool, _Exports]:
        """Import foreign starts, re-propagate dirty rows; report change.

        A row's ready chain is a pure function of its own invocation
        starts/penalties and its previous ready row, so only rows with
        a changed input — or rows still settling from the previous
        round — need recomputing.  Untouched rows keep their finish and
        ready values, which equal what a full recompute would produce.
        """
        return self._timed("step_prop", self._step_prop_impl, imports)

    def _step_prop_impl(
        self,
        imports: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> tuple[bool, _Exports]:
        slc = self.slc
        if imports is not None and imports[0].size:
            pos = np.searchsorted(slc.re_rank, imports[0])
            self.re_start[pos] = imports[1]
            self.re_pen[pos] = imports[2]
            self._pending_rows[slc.re_row[pos]] = True
        mask = self._pending_rows | self._prop_changed
        rows = np.nonzero(mask)[0]
        self._pending_rows[:] = False
        self._prop_changed[:] = False
        if rows.size == 0:
            return False, []
        width = slc.width
        # a clean row recomputes to its current values exactly, so once
        # most rows are dirty (round 1, saturated slots) re-propagate
        # them all: index the row-aligned arrays directly instead of
        # gathering near-full-size copies
        allrows = 2 * int(rows.size) > int(mask.size)
        if allrows:
            rows = np.arange(mask.size)
        k = int(rows.size)
        fin = np.zeros((k, width))
        if allrows:
            if slc.re_rank.size:
                fin[slc.re_row, slc.re_col] = self.re_start + slc.re_s
            old = self.ready
            fin = np.where(slc.cloud_mask, old + slc.service, fin)
            new = np.zeros((k, width))
            new[:, 0] = slc.first_ready
            lens = slc.lengths
            tr = slc.transfer
        else:
            sizes = self.row_ptr[rows + 1] - self.row_ptr[rows]
            total = int(sizes.sum())
            if total:
                starts_of = self.row_ptr[rows]
                csum = np.cumsum(sizes)
                flat = np.arange(total) + np.repeat(
                    starts_of - np.concatenate(([0], csum[:-1])), sizes
                )
                lrow = np.repeat(np.arange(k), sizes)
                fin[lrow, slc.re_col[flat]] = (
                    self.re_start[flat] + slc.re_s[flat]
                )
            old = self.ready[rows]
            fin = np.where(
                slc.cloud_mask[rows], old + slc.service[rows], fin
            )
            new = np.zeros((k, width))
            new[:, 0] = slc.first_ready[rows]
            lens = slc.lengths[rows]
            tr = slc.transfer[rows]
        self._finish[rows] = fin
        for j in range(width - 1):
            nxt = new[:, j] + ((fin[:, j] - new[:, j]) + tr[:, j])
            new[:, j + 1] = np.where(lens > j + 1, nxt, 0.0)
        rowch = np.any(new != old, axis=1)
        if not rowch.any():
            # converged for these rows: nothing to write or export
            return False, []
        chrows = rows[rowch]
        self.ready[chrows] = new[rowch]
        self._prop_changed[chrows] = True
        cs = self.row_ptr[chrows]
        szs = self.row_ptr[chrows + 1] - cs
        tot = int(szs.sum())
        if tot:
            cflat = np.arange(tot) + np.repeat(
                cs - np.concatenate(([0], np.cumsum(szs)[:-1])), szs
            )
        else:
            cflat = np.empty(0, dtype=np.int64)
        return True, self._export_ready(cflat)

    def finalize(self) -> ShardCommit:
        """Assemble this shard's committed outputs (no mutation here)."""
        return self._timed("finalize", self._finalize_impl)

    def _finalize_impl(self) -> ShardCommit:
        slc = self.slc
        n_rows = int(slc.rows.size)
        r_rows = (
            self.ready[slc.re_row, slc.re_col]
            if slc.re_rank.size
            else np.empty(0)
        )
        wait_full = np.zeros((n_rows, slc.width))
        pen_full = np.zeros((n_rows, slc.width))
        if slc.re_rank.size:
            wait_full[slc.re_row, slc.re_col] = self.re_start - (
                r_rows + self.re_pen
            )
            pen_full[slc.re_row, slc.re_col] = self.re_pen
        queueing = np.zeros(n_rows)
        cold = np.zeros(n_rows)
        for j in range(slc.width):
            queueing = queueing + wait_full[:, j]
            cold = cold + pen_full[:, j]
        if n_rows:
            row_idx = np.arange(n_rows)
            last_col = slc.lengths - 1
            last_ready = self.ready[row_idx, last_col]
            last_finish = self._finish[row_idx, last_col]
            finish = last_ready + ((last_finish - last_ready) + slc.ret)
        else:
            finish = np.empty(0)

        busy: dict = {}
        core_free: dict = {}
        for v, idx in self.node_idx.items():
            cache = self._node_cache.get(v)
            if cache is None:  # node never had an invocation
                busy[v] = 0.0
                core_free[v] = [0.0] * NODE_CORES
                continue
            # the cache already holds the converged claim-order state;
            # ``add.accumulate`` is a strict left-to-right chain — the
            # event loop's exact IEEE sum order, unlike ``np.sum``'s
            # pairwise reduction
            busy[v] = (
                float(np.add.accumulate(cache.w_s)[-1])
                if cache.w_s.size
                else 0.0
            )
            core_free[v] = _core_free_final(cache.st_s, cache.w_s)
        return ShardCommit(
            rows=slc.rows,
            finish=finish,
            queueing=queueing,
            cold=cold,
            busy=busy,
            core_free=core_free,
            cells=np.divmod(slc.groups, slc.M),
            group_last=self.group_last,
            n_cold=int(self.group_cold.sum()),
            n_warm=int(self.group_warm.sum()),
            tied=any(self.tied.values()),
            n_local=int(self._re_local.size),
            n_boundary=int(self._re_foreign.size),
        )

    def flush_telemetry(self) -> None:
        """Emit accumulated telemetry into the ambient tracer and reset.

        Counters land under ``runtime.shard.*`` (deterministic functions
        of the replay inputs) and the per-phase wall times become one
        synthetic ``shard<k>`` span with one child per protocol phase.
        A no-op when tracing is disabled.
        """
        tel = self._telemetry
        tracer = current_tracer()
        if tel is None or not tracer.enabled:
            return None
        for key in sorted(tel.counters):
            value = tel.counters[key]
            if value:
                tracer.inc(f"runtime.shard.{key}", value)
        children = [
            Span(
                name=phase,
                duration=elapsed,
                attrs={"calls": tel.phase_calls[phase]},
            )
            for phase, elapsed in tel.phase_elapsed.items()
        ]
        if children:
            tracer.attach_span(
                Span(
                    name=f"shard{self.region}",
                    duration=sum(c.duration for c in children),
                    children=children,
                )
            )
        self._telemetry = _ShardTelemetry()
        return None


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


@dataclass
class ShardStats:
    """Telemetry of one sharded replay (see docs/OBSERVABILITY.md)."""

    n_shards: int = 0
    rounds: int = 0
    exchange_rounds: int = 0
    boundary_invocations: int = 0
    local_invocations: int = 0
    ready_values_exchanged: int = 0
    start_values_exchanged: int = 0


@dataclass
class ShardedReplayResult:
    """A committed sharded replay: the bit-identical columnar result
    plus shard/exchange telemetry."""

    result: ReplayResult
    stats: ShardStats


def _route(
    exports: dict, n_cols: int
) -> dict[int, Optional[tuple]]:
    """Merge per-shard export lists into per-destination payloads."""
    buckets: dict[int, list] = {}
    for items in exports.values():
        for item in items:
            buckets.setdefault(item[0], []).append(item[1:])
    merged: dict[int, Optional[tuple]] = {}
    for d, parts in buckets.items():
        cols = [np.concatenate([p[c] for p in parts]) for c in range(n_cols)]
        order = np.argsort(cols[0], kind="stable")
        merged[d] = tuple(col[order] for col in cols)
    return merged


def run_sharded_rounds(
    shards: Sequence[RegionShard],
) -> tuple[Optional[list[ShardCommit]], ShardStats]:
    """The Jacobi schedule over shard objects, one region at a time."""
    stats = ShardStats(n_shards=len(shards))
    exports = {s.region: s.begin() for s in shards}
    converged = False
    while stats.rounds < DEFAULT_MAX_ROUNDS:
        stats.rounds += 1
        ready_in = _route(exports, 2)
        stats.ready_values_exchanged += sum(
            int(p[0].size) for p in ready_in.values() if p is not None
        )
        start_exports = {
            s.region: s.step_sim(ready_in.get(s.region)) for s in shards
        }
        start_in = _route(start_exports, 3)
        stats.start_values_exchanged += sum(
            int(p[0].size) for p in start_in.values() if p is not None
        )
        stats.exchange_rounds += 2
        changed = False
        exports = {}
        for s in shards:
            ch, exp = s.step_prop(start_in.get(s.region))
            changed = changed or ch
            exports[s.region] = exp
        if not changed:
            converged = True
            break
    if not converged:
        for s in shards:
            s.flush_telemetry()
        return None, stats
    commits = [s.finalize() for s in shards]
    for s in shards:
        s.flush_telemetry()
    if any(c.tied for c in commits):
        return None, stats
    stats.boundary_invocations = sum(c.n_boundary for c in commits)
    stats.local_invocations = sum(c.n_local for c in commits)
    return commits, stats


def commit_sharded(
    commits: Sequence[ShardCommit],
    stats: ShardStats,
    pool: InstancePool,
    nodes: Sequence,
    req: np.ndarray,
    at: np.ndarray,
) -> ShardedReplayResult:
    """Merge shard commits into the global result and advance state.

    Each shard's warmth is one fancy-indexed write: every invoked
    group's last invocation time lands in its ``last_used`` cell.  The
    cold-start and warm-hit counters advance by the shards' sums,
    exactly as the equivalent :meth:`InstancePool.invoke` sequence
    would.
    """
    n_req = int(req.size)
    finish = np.empty(n_req)
    queueing = np.empty(n_req)
    cold = np.empty(n_req)
    for c in commits:
        finish[c.rows] = c.finish
        queueing[c.rows] = c.queueing
        cold[c.rows] = c.cold
        pool.last_used[c.cells] = c.group_last
        pool.cold_starts += c.n_cold
        pool.warm_hits += c.n_warm
        for v, b in c.busy.items():
            nodes[v].busy_time += b
            nodes[v].core_free[:] = c.core_free[v]
    result = ReplayResult(
        request=req.copy(),
        start=at.copy(),
        finish=finish,
        queueing=queueing,
        cold_start=cold,
        rounds=stats.rounds,
    )
    return ShardedReplayResult(result=result, stats=stats)


def slices_from_plan(
    plan: ReplayPlan, region_map: RegionMap
) -> list[ShardSlice]:
    """Carve every region's :class:`ShardSlice` out of a full plan."""
    node_region = region_map.regions
    row_region = node_region[plan.homes]
    ann = _PlanRegions(
        region_map=region_map,
        row_region=row_region,
        ranks=plan.e_rows * np.int64(plan.width) + plan.e_cols,
        e_row_region=row_region[plan.e_rows],
        v_region=node_region[plan.v_edge],
        g_node=np.divmod(plan.groups, plan.M)[1],
    )
    return [
        ShardSlice.from_plan(plan, ann, r)
        for r in range(region_map.n_regions)
    ]


def build_shard_slices(
    instance: ProblemInstance,
    placement: Placement,
    routing: Routing,
    pool: InstancePool,
    nodes: Sequence,
    req: np.ndarray,
    at: np.ndarray,
    region_map: RegionMap,
) -> Optional[list[ShardSlice]]:
    """Build every region's :class:`ShardSlice` from a full plan.

    The slices copy everything the rounds need, so the plan's own
    arrays (~25% of the slot's working set at 1M users) are freed when
    this returns, before any round runs.
    """
    plan = build_replay_plan(
        instance, placement, routing, pool, nodes, req, at
    )
    if plan is None:
        return None
    return slices_from_plan(plan, region_map)


def replay_slot_sharded(
    instance: ProblemInstance,
    placement: Placement,
    routing: Routing,
    pool: InstancePool,
    nodes: Sequence,
    req: np.ndarray,
    at: np.ndarray,
    region_map: RegionMap,
) -> Optional[ShardedReplayResult]:
    """Region-sharded replay of one slot; ``None`` declines.

    ``nodes`` is the cluster's list of fresh ``_Node`` objects (all
    cores idle at time 0, zero accumulated busy time).  On success their
    ``core_free`` / ``busy_time`` are advanced exactly as the event loop
    would have, and the ``pool``'s warmth, cold-start and warm-hit
    counters are updated in bulk; the committed columns are
    bit-identical to the event loop's outcomes for any region map.  On
    ``None`` (an exact same-node ready tie at the fixpoint, no
    convergence within ``DEFAULT_MAX_ROUNDS``, or an ineligible plan)
    nothing is mutated and the caller must run the event loop instead.
    The caller is responsible for input validation and for ensuring no
    fault injector or resilience policy is active.
    """
    if region_map.n_nodes != len(nodes):
        raise ValueError(
            f"region map covers {region_map.n_nodes} nodes, cluster has "
            f"{len(nodes)}"
        )
    req = np.asarray(req, dtype=np.int64)
    at = np.asarray(at, dtype=np.float64)
    if req.size == 0:
        return ShardedReplayResult(
            result=empty_result(req),
            stats=ShardStats(n_shards=region_map.n_regions),
        )
    slices = build_shard_slices(
        instance, placement, routing, pool, nodes, req, at, region_map
    )
    if slices is None:
        return None
    commits, stats = run_sharded_rounds([RegionShard(s) for s in slices])
    if commits is None:
        return None
    return commit_sharded(commits, stats, pool, nodes, req, at)


def replay_slot(
    instance: ProblemInstance,
    placement: Placement,
    routing: Routing,
    pool: InstancePool,
    nodes: Sequence,
    req: np.ndarray,
    at: np.ndarray,
) -> Optional[ReplayResult]:
    """Replay one slot as a single region; ``None`` declines.

    The unsharded entry point: :func:`replay_slot_sharded` with every
    node in region 0, returning only the columnar result.
    """
    one = RegionMap(np.zeros(len(nodes), dtype=np.int64), 1)
    sharded = replay_slot_sharded(
        instance, placement, routing, pool, nodes, req, at, one
    )
    return None if sharded is None else sharded.result
