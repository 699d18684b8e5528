"""Global-scheduler runs of the binary protocols.

One round is one scheduler pick: a correct node chosen uniformly at
random queries k others and folds the responses into its state. Rounds
divided by the number of correct nodes give per-node iterations, the unit
the convergence tables use.

Two engines implement the same semantics. The scalar functions
(:func:`run_slush`, :func:`run_snow`) are entry points to one scheduler
loop that drives the pure state machines one query at a time, modelling
response collection mechanically (refusing nodes are skipped and
replaced by further sampling); the variants differ only in their node
state and in when the run stops. The batch functions run thousands of
trials at once on numpy arrays. :func:`run_snow_batch` steps every live
trial round by round. A query has three outcomes (red win, blue win,
fail), and their exact probabilities depend only on the red count, the
querier's color and, for the balance-keeper, its assignment, because
responders never change state and co-strategic Byzantine nodes all
answer alike in any given round. So the engine tabulates them once per
run from the hypergeometric distribution, and each round draws two
uniforms per live trial (trials with an undecided node): one picks the
node, the other reads its query's outcome off the tables. Messages are k
per query.
:func:`run_slush_batch` needs no per-node state at all: the red count is
the whole state of a Slush network, a birth-death chain, so it draws only
the chain's moves and the geometric number of rounds between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from snowsim.analysis.chains import build_slush_chain
from snowsim.machines import (
    Color,
    ProtocolParams,
    Variant,
    fresh_state,
    handle_sample_result,
)
from snowsim.sampling import Rng, _tail_array
from snowsim.sim.adversaries import Adversary, AdversaryState


@dataclass(frozen=True, kw_only=True)
class NetworkConfig:
    """One simulated network: sizes, protocol knobs, adversary, seed."""

    n: int
    b: int = 0
    params: ProtocolParams
    phi: int
    adversary: Adversary = Adversary.NONE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("a network needs at least two nodes")
        if not 0 <= self.b < self.n:
            raise ValueError("byzantine count must satisfy 0 <= b < n")
        if self.c < 2:
            raise ValueError("need at least two correct nodes")
        if self.phi < 1:
            raise ValueError("round budget must be positive")
        if max(self.phi, self.params.beta) > np.iinfo(np.int64).max:
            raise ValueError(f"phi={self.phi} and beta={self.params.beta} must fit int64 counters")
        if self.params.k > self.n - 1:
            raise ValueError("sample size exceeds the rest of the network")
        refusing = (Adversary.REFUSE, Adversary.MINORITY_PUSH)
        if self.b > 0 and self.adversary in refusing and self.params.k > self.c - 1:
            raise ValueError("refusal strategies need k answers available from correct nodes")

    @property
    def c(self) -> int:
        return self.n - self.b


@dataclass(frozen=True)
class RunOutcome:
    """What one run produced.

    ``decisions`` has one entry per correct node (None while undecided;
    always None for the non-deciding protocol). ``unanimity_round`` is
    the first round at which every correct node held one color, if that
    happened, and ``unanimity_color`` is the color they held then.
    ``pick_counts`` records the scheduler's choices.
    """

    rounds_used: int
    per_node_iterations: float
    decisions: tuple[Color | None, ...]
    safety_violation: bool
    messages_sent: int
    unanimity_round: int | None
    unanimity_color: Color | None
    pick_counts: tuple[int, ...]


def _collect_responses(
    gen: np.random.Generator,
    u: int,
    n: int,
    c: int,
    k: int,
    colors: list[Color],
    adv: AdversaryState,
    red_count: int,
    tie_coin_red: bool,
) -> dict[Color, int]:
    """Walk a random permutation of the other nodes until k answers.

    Refusals are skipped, which realizes resampling: the next node in a
    uniform permutation is a uniform draw from those not yet contacted.
    """
    order = gen.permutation(n - 1)
    reds = answered = 0
    for raw in order:
        if answered == k:
            break
        slot = int(raw)
        v = slot + (slot >= u)
        if v < c:
            ans: Color | None = colors[v]
        else:
            ans = adv.answer(v, u, red_count, tie_coin_red)
        if ans is None:
            continue
        answered += 1
        reds += ans is Color.RED
    if answered < k:
        raise RuntimeError("not enough responsive nodes for a full sample")
    return {Color.RED: reds, Color.BLUE: k - reds}


def _run_scalar(cfg: NetworkConfig, variant: Variant, initial_reds: int) -> RunOutcome:
    """The scheduler loop of every variant, one query at a time.

    Each round picks a correct node uniformly. The deciding variants then
    draw the round's tie coin, and a pick of a decided node consumes the
    round without a query. Slush stops at unanimity, the deciding variants
    once every correct node has decided, and all of them at ``phi``.
    """
    if not 0 <= initial_reds <= cfg.c:
        raise ValueError("initial red count out of range")
    c, k = cfg.c, cfg.params.k
    slush = variant is Variant.SLUSH
    colors = [Color.RED] * initial_reds + [Color.BLUE] * (c - initial_reds)
    states = [fresh_state(variant, col) for col in colors]
    adv = AdversaryState.create(cfg.adversary, colors, cfg.b)
    gen = Rng(cfg.seed).generator
    red_count = initial_reds
    picks = [0] * c
    messages = decided_n = rounds_used = 0
    unanimity: int | None = None
    unanimity_color: Color | None = None

    def skew(v: int, toward: Color) -> int:
        s = states[v]
        if variant is Variant.SNOWBALL:
            return s.confidence(toward) - s.confidence(toward.other())
        return s.cnt if s.col is toward else -s.cnt

    while True:
        if unanimity is None and red_count in (0, c):
            unanimity = rounds_used
            unanimity_color = Color.RED if red_count == c else Color.BLUE
        if rounds_used == cfg.phi or (unanimity is not None if slush else decided_n == c):
            break
        rounds_used += 1
        u = int(gen.integers(c))
        picks[u] += 1
        tie_coin_red = not slush and gen.random() < 0.5
        old = states[u]
        if old.decided is not None:
            continue
        counts = _collect_responses(gen, u, cfg.n, c, k, colors, adv, red_count, tie_coin_red)
        new = states[u] = handle_sample_result(old, cfg.params, counts)
        messages += k
        if new.col is not old.col:
            red_count += 1 if new.col is Color.RED else -1
            colors[u] = new.col
            adv.notify_flip(u, new.col, skew)
        decided_n += new.decided is not None
    decisions = tuple(s.decided for s in states)
    return RunOutcome(
        rounds_used=rounds_used,
        per_node_iterations=rounds_used / c,
        decisions=decisions,
        safety_violation=Color.RED in decisions and Color.BLUE in decisions,
        messages_sent=messages,
        unanimity_round=unanimity,
        unanimity_color=unanimity_color,
        pick_counts=tuple(picks),
    )


def run_slush(cfg: NetworkConfig, initial_reds: int) -> RunOutcome:
    """Scalar run of the memoryless protocol until unanimity or the budget.

    Requires a fully correct network; the protocol has no defense against
    Byzantine members and refuses to pretend otherwise.
    """
    if cfg.b != 0:
        raise ValueError("this protocol assumes every node is correct")
    return _run_scalar(cfg, Variant.SLUSH, initial_reds)


def run_snow(cfg: NetworkConfig, variant: Variant, initial_reds: int) -> RunOutcome:
    """Scalar run of a deciding protocol against the configured adversary.

    The scheduler keeps picking uniformly over all correct nodes; a pick
    of a decided node consumes the round without a query. The run ends
    when every correct node has decided or the budget runs out.
    """
    if variant not in (Variant.SNOWFLAKE, Variant.SNOWBALL):
        raise ValueError("scalar snow runs cover the deciding variants only")
    return _run_scalar(cfg, variant, initial_reds)


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class MonteCarlo:
    """Aggregate of independent trials; records keep per-trial values."""

    mean: float
    stddev: float
    records: tuple[float, ...]


def monte_carlo(experiment: Callable[[Rng], float], trials: int, base_seed: int) -> MonteCarlo:
    """Run ``experiment`` on independent, order-insensitive seed streams.

    Trial i always receives stream i of ``base_seed``, so results do not
    depend on execution order and repeat exactly for the same seed.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    records = tuple(float(experiment(Rng(base_seed, stream_id=i))) for i in range(trials))
    arr = np.asarray(records)
    stddev = float(arr.std(ddof=1)) if trials > 1 else 0.0
    return MonteCarlo(mean=float(arr.mean()), stddev=stddev, records=records)


# ---------------------------------------------------------------------------
# batch engines


@dataclass(frozen=True)
class SlushBatch:
    """Per-trial results of batched non-deciding runs.

    ``all_red`` is only meaningful where ``converged`` is true.
    """

    c: int
    rounds: np.ndarray
    converged: np.ndarray
    all_red: np.ndarray
    messages: np.ndarray

    @property
    def per_node_iterations(self) -> np.ndarray:
        return self.rounds / self.c


@dataclass(frozen=True)
class SnowBatch:
    """Per-trial results of lockstep deciding runs.

    ``early_decision`` flags any node that decided with fewer personal
    queries than the run threshold requires; it must stay all-false and
    exists as a harness self-check. ``unanimity_round`` is -1 where the
    correct nodes never held a single color.
    """

    c: int
    rounds: np.ndarray
    all_decided: np.ndarray
    safety_violation: np.ndarray
    unanimity_round: np.ndarray
    early_decision: np.ndarray
    messages: np.ndarray
    red_decisions: np.ndarray
    blue_decisions: np.ndarray


def run_slush_batch(cfg: NetworkConfig, initial_reds: int, trials: int) -> SlushBatch:
    """Trials of the non-deciding protocol as a jump chain on the red count.

    The scheduled node is red with probability i/c and samples the other
    c - 1 nodes, so ``build_slush_chain(c, k, a, population=c - 1)`` gives
    the exact per-round up and down probabilities. Each trial waits a
    geometric number of rounds for its next move, then steps up or down in
    proportion to them. A trial whose next move would come after the budget,
    or that sits in a state it can never leave, ends at ``phi`` unconverged.
    """
    if cfg.b != 0:
        raise ValueError("this protocol assumes every node is correct")
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= initial_reds <= cfg.c:
        raise ValueError("initial red count out of range")
    c, phi = cfg.c, cfg.phi
    chain = build_slush_chain(c, cfg.params.k, cfg.params.a, population=c - 1)
    move = chain.up + chain.down
    gen = Rng(cfg.seed).generator
    red = np.full(trials, initial_reds, dtype=np.int64)
    rounds = np.zeros(trials, dtype=np.int64)
    live = np.flatnonzero((0 < red) & (red < c))
    while live.size:
        p = move[red[live]]
        # p = 0 (a frozen state) is clipped only to keep geometric defined.
        # Compare with the budget left before adding: geometric(p) saturates
        # at the int64 maximum for p below about 1e-19.
        wait = gen.geometric(np.clip(p, 1e-300, 1.0))
        stuck = (p == 0) | (wait > phi - rounds[live])
        rounds[live[stuck]] = phi
        live, wait = live[~stuck], wait[~stuck]
        i = red[live]
        rounds[live] += wait
        red[live] = i + np.where(gen.random(live.size) * move[i] < chain.up[i], 1, -1)
        live = live[(red[live] > 0) & (red[live] < c)]
    return SlushBatch(
        c=c, rounds=rounds, converged=(red == 0) | (red == c), all_red=red == c,
        messages=cfg.params.k * rounds,
    )


def _outcome_tables(cfg: NetworkConfig, initial_reds: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact (P(red win), P(red or blue win)) for every query state the
    configured adversary tells apart, indexed as :func:`run_snow_batch` reads
    them. ``r_excl`` is the number of red correct nodes other than the querier.

    - ``NONE``, ``REFUSE``: ``r_excl``. The fixed Byzantine split answers
      with the rest; refusals are replaced by correct-only sampling.
    - ``BALANCE_KEEPER``: ``assign * c + r_excl``. All Byzantine nodes
      answer the querier's assignment.
    - ``MINORITY_PUSH``: ``own_color * (c + 1) + red_count``. All Byzantine
      nodes push the minority color, the tie coin's two sides weigh one half
      each, and a push of a color never proposed is a refusal.
    """
    c, b, k, a = cfg.c, cfg.b, cfg.params.k, cfg.params.a

    def win_probabilities(pop: int, reds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # A uniform k-sample of pop nodes, reds of which answer red: red wins
        # with at least a red answers, blue with at least a blue ones.
        red = _tail_array(pop, reds, k, a)
        return red, red + _tail_array(pop, pop - reds, k, a)

    valid_red, valid_blue = initial_reds > 0, initial_reds < c
    r_excl = np.arange(c)
    if cfg.adversary is Adversary.NONE:
        byz_reds = b // 2 if valid_red and valid_blue else (b if valid_red else 0)
        return win_probabilities(cfg.n - 1, r_excl + byz_reds)
    if cfg.adversary is Adversary.REFUSE:
        return win_probabilities(c - 1, r_excl)
    if cfg.adversary is Adversary.BALANCE_KEEPER:
        return win_probabilities(cfg.n - 1, np.concatenate([r_excl, r_excl + b]))
    red = np.tile(np.arange(c + 1), 2)
    r_excl = np.clip(red - np.repeat([0, 1], c + 1), 0, c - 1)
    refused = win_probabilities(c - 1, r_excl)
    push_red = win_probabilities(cfg.n - 1, r_excl + b) if valid_red else refused
    push_blue = win_probabilities(cfg.n - 1, r_excl) if valid_blue else refused
    w = np.where(2 * red < c, 1.0, np.where(2 * red > c, 0.0, 0.5))
    return w * push_red[0] + (1 - w) * push_blue[0], w * push_red[1] + (1 - w) * push_blue[1]


def run_snow_batch(
    cfg: NetworkConfig, variant: Variant, initial_reds: int, trials: int
) -> SnowBatch:
    """Lockstep trials of a deciding protocol under the configured adversary.

    A node reads its k-sample only through "at least a red" and "at least
    a blue", so a query has three outcomes: red win, blue win or fail.
    :func:`_outcome_tables` gives their exact probabilities for every state
    the adversary tells apart, once per run. Each round draws one uniform
    for every live trial's pick and one for its outcome, which is read off
    the tables. Only trials with an undecided node stay live, and only picks
    of undecided nodes query: a node is decided exactly when ``cnt >= beta``.
    Snowball's two confidences are carried as their difference, whose sign,
    when nonzero, is the node's color. Every query sends k messages, so
    ``messages`` is k times a trial's queries.
    """
    if variant not in (Variant.SNOWFLAKE, Variant.SNOWBALL):
        raise ValueError("batch snow runs cover the deciding variants only")
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= initial_reds <= cfg.c:
        raise ValueError("initial red count out of range")
    c, k, beta = cfg.c, cfg.params.k, cfg.params.beta
    strategy = cfg.adversary
    snowball = variant is Variant.SNOWBALL
    p_red, p_any = _outcome_tables(cfg, initial_reds)
    gen = Rng(cfg.seed).generator

    # Per-node state, flat: node u of trial t sits at t * c + u.
    col = np.zeros((trials, c), dtype=np.int8)
    col[:, :initial_reds] = 1
    col = col.ravel()
    cnt = np.zeros(trials * c, dtype=np.int64)
    iters = np.zeros(trials * c, dtype=np.int64)
    if snowball:
        conf = np.zeros(trials * c, dtype=np.int64)  # red minus blue confidence
        last = col.copy()
    if strategy is Adversary.BALANCE_KEEPER:
        assign = col.copy()
        offside = np.iinfo(np.int64).max
    red_count = np.full(trials, initial_reds, dtype=np.int64)
    decided_n = np.zeros(trials, dtype=np.int64)
    rounds = np.full(trials, cfg.phi, dtype=np.int64)
    unanimity = np.full(trials, 0 if initial_reds in (0, c) else -1, dtype=np.int64)
    live = np.arange(trials)

    for r in range(1, cfg.phi + 1):
        if not live.size:
            break
        pick, outcome = gen.random((2, live.size))
        slot = live * c + (pick * c).astype(np.int64)
        query = cnt[slot] < beta
        slot, v, t = slot[query], outcome[query], live[query]
        ucol = col[slot]
        if strategy is Adversary.MINORITY_PUSH:
            state = ucol.astype(np.int64) * (c + 1) + red_count[t]
        else:
            state = red_count[t] - ucol
            if strategy is Adversary.BALANCE_KEEPER:
                state += assign[slot].astype(np.int64) * c
        win_red = v < p_red[state]
        win = v < p_any[state]
        cnt_u = cnt[slot]

        if not snowball:
            cnt_new = np.where(win & (win_red == ucol), cnt_u + 1, 0)
            col_new = np.where(win, win_red, ucol)
        else:
            conf_new = conf[slot] + np.where(win, np.where(win_red, 1, -1), 0)
            # A node turns only when the other color's confidence is strictly
            # higher, so it holds the sign of conf_new, or its color at 0.
            col_new = np.where(conf_new == 0, ucol, conf_new > 0)
            last_u = last[slot]
            cnt_new = np.where(win, np.where(win_red == last_u, cnt_u + 1, 1), 0)
            last[slot] = np.where(win, win_red, last_u)
            conf[slot] = conf_new

        col[slot] = col_new
        cnt[slot] = cnt_new
        iters[slot] += 1

        moved = col_new != ucol
        if moved.any():
            tm, target = t[moved], col_new[moved]
            red_count[tm] += 2 * target - 1
            red_now = red_count[tm]
            first = (unanimity[tm] < 0) & ((red_now == 0) | (red_now == c))
            unanimity[tm[first]] = r
            if strategy is Adversary.BALANCE_KEEPER:
                sm = slot[moved]
                off = assign[sm] != target
                if off.any():
                    sm, tm, target = sm[off], tm[off], target[off]
                    assign[sm] = target
                    nodes = tm[:, None] * c + np.arange(c)
                    toward = target[:, None]
                    if snowball:
                        sk = np.where(toward == 1, conf[nodes], -conf[nodes])
                    else:
                        sk = np.where(col[nodes] == toward, cnt[nodes], -cnt[nodes])
                    sk = np.where(assign[nodes] == toward, sk, offside)
                    assign[tm * c + np.argmin(sk, axis=1)] = 1 - target

        now = cnt_new >= beta
        if now.any():
            td = t[now]
            decided_n[td] += 1
            done = td[decided_n[td] == c]
            if done.size:
                rounds[done] = r
                live = live[decided_n[live] < c]

    # A decided node never queries again, so its decision is still its color
    # (Snowflake) or the color of its last successful query (Snowball).
    decided = (cnt >= beta).reshape(trials, c)
    red = (last if snowball else col).reshape(trials, c) == 1
    red_dec = decided & red
    blue_dec = decided & ~red
    iters = iters.reshape(trials, c)
    return SnowBatch(
        c=c,
        rounds=rounds,
        all_decided=decided_n == c,
        safety_violation=red_dec.any(axis=1) & blue_dec.any(axis=1),
        unanimity_round=unanimity,
        early_decision=(decided & (iters < beta)).any(axis=1),
        messages=k * iters.sum(axis=1),
        red_decisions=red_dec.sum(axis=1),
        blue_decisions=blue_dec.sum(axis=1),
    )
