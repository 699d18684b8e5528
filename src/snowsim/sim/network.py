"""Global-scheduler runs of the binary protocols.

One round is one scheduler pick: a correct node chosen uniformly at
random queries k others and folds the responses into its state. Rounds
divided by the number of correct nodes give per-node iterations, the unit
the convergence tables use.

Two engines implement the same semantics. The scalar functions
(:func:`run_slush`, :func:`run_snow`) drive the pure state machines one
query at a time, modelling response collection mechanically (refusing
nodes are skipped and replaced by further sampling). The batch functions
run thousands of trials at once on numpy arrays. :func:`run_snow_batch`
steps every trial round by round and draws each sample's composition
directly from the exact hypergeometric counting distribution, which is
equivalent because responders never change state and co-strategic
Byzantine nodes all answer alike in any given round.
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
from snowsim.sampling import Rng
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


def _initial_colors(c: int, initial_reds: int) -> list[Color]:
    if not 0 <= initial_reds <= c:
        raise ValueError("initial red count out of range")
    return [Color.RED] * initial_reds + [Color.BLUE] * (c - initial_reds)


def _violation(decisions: tuple[Color | None, ...]) -> bool:
    return Color.RED in decisions and Color.BLUE in decisions


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


def run_slush(cfg: NetworkConfig, initial_reds: int) -> RunOutcome:
    """Scalar run of the memoryless protocol until unanimity or the budget.

    Requires a fully correct network; the protocol has no defense against
    Byzantine members and refuses to pretend otherwise.
    """
    if cfg.b != 0:
        raise ValueError("this protocol assumes every node is correct")
    c, k = cfg.c, cfg.params.k
    colors = _initial_colors(c, initial_reds)
    states = [fresh_state(Variant.SLUSH, col) for col in colors]
    gen = Rng(cfg.seed).generator
    adv = AdversaryState.create(Adversary.NONE, colors, 0)
    red_count = initial_reds
    picks = [0] * c
    messages = 0
    unanimity: int | None = 0 if red_count in (0, c) else None
    rounds_used = 0
    if unanimity is None:
        for r in range(1, cfg.phi + 1):
            u = int(gen.integers(c))
            picks[u] += 1
            counts = _collect_responses(gen, u, cfg.n, c, k, colors, adv, red_count, False)
            new = handle_sample_result(states[u], cfg.params, counts)
            messages += k
            if new.col is not states[u].col:
                red_count += 1 if new.col is Color.RED else -1
                colors[u] = new.col
            states[u] = new
            rounds_used = r
            if red_count in (0, c):
                unanimity = r
                break
        else:
            rounds_used = cfg.phi
    if unanimity is None:
        unanimity_color = None
    else:
        unanimity_color = Color.RED if red_count == c else Color.BLUE
    return RunOutcome(
        rounds_used=rounds_used,
        per_node_iterations=rounds_used / c,
        decisions=(None,) * c,
        safety_violation=False,
        messages_sent=messages,
        unanimity_round=unanimity,
        unanimity_color=unanimity_color,
        pick_counts=tuple(picks),
    )


def run_snow(cfg: NetworkConfig, variant: Variant, initial_reds: int) -> RunOutcome:
    """Scalar run of a deciding protocol against the configured adversary.

    The scheduler keeps picking uniformly over all correct nodes; a pick
    of a decided node consumes the round without a query. The run ends
    when every correct node has decided or the budget runs out.
    """
    if variant not in (Variant.SNOWFLAKE, Variant.SNOWBALL):
        raise ValueError("scalar snow runs cover the deciding variants only")
    c, k = cfg.c, cfg.params.k
    colors = _initial_colors(c, initial_reds)
    states = [fresh_state(variant, col) for col in colors]
    adv = AdversaryState.create(cfg.adversary, colors, cfg.b)
    gen = Rng(cfg.seed).generator
    red_count = initial_reds
    picks = [0] * c
    messages = 0
    decided_n = 0
    unanimity: int | None = 0 if red_count in (0, c) else None
    unanimity_color: Color | None = None
    if unanimity == 0:
        unanimity_color = Color.RED if red_count == c else Color.BLUE
    rounds_used = cfg.phi

    def skew(v: int, toward: Color) -> int:
        s = states[v]
        if variant is Variant.SNOWBALL:
            return s.confidence(toward) - s.confidence(toward.other())
        return s.cnt if s.col is toward else -s.cnt

    for r in range(1, cfg.phi + 1):
        u = int(gen.integers(c))
        picks[u] += 1
        tie_coin_red = bool(gen.random() < 0.5)
        if states[u].decided is not None:
            continue
        counts = _collect_responses(
            gen, u, cfg.n, c, k, colors, adv, red_count, tie_coin_red
        )
        old = states[u]
        new = handle_sample_result(old, cfg.params, counts)
        states[u] = new
        messages += k
        if new.col is not old.col:
            red_count += 1 if new.col is Color.RED else -1
            colors[u] = new.col
            adv.notify_flip(u, new.col, skew)
        if unanimity is None and red_count in (0, c):
            unanimity = r
            unanimity_color = Color.RED if red_count == c else Color.BLUE
        if new.decided is not None:
            decided_n += 1
            if decided_n == c:
                rounds_used = r
                break
    decisions = tuple(s.decided for s in states)
    return RunOutcome(
        rounds_used=rounds_used,
        per_node_iterations=rounds_used / c,
        decisions=decisions,
        safety_violation=_violation(decisions),
        messages_sent=messages,
        unanimity_round=unanimity,
        unanimity_color=unanimity_color,
        pick_counts=tuple(picks),
    )


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


def run_snow_batch(
    cfg: NetworkConfig, variant: Variant, initial_reds: int, trials: int
) -> SnowBatch:
    """Lockstep trials of a deciding protocol under the configured adversary.

    Sample compositions come from exact hypergeometric counts: the number
    of Byzantine nodes in a sample, then the red count among the correct
    remainder. Byzantine answers join whichever count their strategy
    dictates. Answers outside the initially proposed value set cannot be
    given (conflicts are not forgeable) and turn into refusals, replaced
    by correct-only sampling.
    """
    if variant not in (Variant.SNOWFLAKE, Variant.SNOWBALL):
        raise ValueError("batch snow runs cover the deciding variants only")
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= initial_reds <= cfg.c:
        raise ValueError("initial red count out of range")
    c, b, k, a, beta = cfg.c, cfg.b, cfg.params.k, cfg.params.a, cfg.params.beta
    strategy = cfg.adversary
    snowball = variant is Variant.SNOWBALL
    gen = Rng(cfg.seed).generator
    T = trials
    rows = np.arange(T)

    col = np.zeros((T, c), dtype=np.int8)
    col[:, :initial_reds] = 1
    red_count = np.full(T, initial_reds, dtype=np.int64)
    cnt = np.zeros((T, c), dtype=np.int64)
    decided = np.zeros((T, c), dtype=bool)
    iters = np.zeros((T, c), dtype=np.int64)
    if snowball:
        d_red = np.zeros((T, c), dtype=np.int64)
        d_blue = np.zeros((T, c), dtype=np.int64)
        last = col.copy()
    if strategy is Adversary.BALANCE_KEEPER:
        assign = col.copy()

    valid_red = initial_reds > 0
    valid_blue = initial_reds < c
    restricted = not (valid_red and valid_blue)
    byz_reds = (b // 2) if not restricted else (b if valid_red else 0)

    dec_count = np.zeros(T, dtype=np.int64)
    alive = np.ones(T, dtype=bool)
    rounds = np.full(T, cfg.phi, dtype=np.int64)
    unanimity = np.where((red_count == 0) | (red_count == c), 0, -1).astype(np.int64)
    early = np.zeros(T, dtype=bool)
    messages = np.zeros(T, dtype=np.int64)

    for r in range(1, cfg.phi + 1):
        if not alive.any():
            break
        u = gen.integers(0, c, size=T)
        if strategy is Adversary.MINORITY_PUSH:
            coin = gen.random(T) < 0.5
        ucol = col[rows, u]
        act = alive & ~decided[rows, u]
        r_excl = red_count - ucol

        if strategy is Adversary.NONE:
            reds = gen.hypergeometric(
                r_excl + byz_reds, (c - 1 - r_excl) + (b - byz_reds), k, size=T
            )
        elif strategy is Adversary.REFUSE:
            reds = gen.hypergeometric(r_excl, c - 1 - r_excl, k, size=T)
        elif strategy is Adversary.BALANCE_KEEPER:
            j = gen.hypergeometric(b, c - 1, k, size=T)
            cr = gen.hypergeometric(r_excl, c - 1 - r_excl, k - j, size=T)
            reds = cr + j * (assign[rows, u] == 1)
        else:  # minority push
            maj_red = 2 * red_count > c
            tie = 2 * red_count == c
            push_red = np.where(tie, coin, ~maj_red)
            j = gen.hypergeometric(b, c - 1, k, size=T)
            cr = gen.hypergeometric(r_excl, c - 1 - r_excl, k - j, size=T)
            reds = cr + j * push_red
            if restricted:
                refusing = np.where(push_red, not valid_red, not valid_blue)
                alt = gen.hypergeometric(r_excl, c - 1 - r_excl, k, size=T)
                reds = np.where(refusing, alt, reds)

        win_r = act & (reds >= a)
        win_b = act & (k - reds >= a)
        got = win_r | win_b
        wincol = np.where(win_r, 1, 0).astype(np.int8)
        cnt_u = cnt[rows, u]

        if not snowball:
            same = got & (wincol == ucol)
            flip = got & (wincol != ucol)
            cnt_new = np.where(same, cnt_u + 1, np.where(act, 0, cnt_u))
            col_new = np.where(flip, wincol, ucol)
            dec_now = same & (cnt_new >= beta)
        else:
            dr_u = d_red[rows, u] + win_r
            db_u = d_blue[rows, u] + win_b
            d_win = np.where(win_r, dr_u, db_u)
            d_cur = np.where(ucol == 1, dr_u, db_u)
            flip = got & (d_win > d_cur)
            col_new = np.where(flip, wincol, ucol)
            last_u = last[rows, u]
            streak_break = got & (wincol != last_u)
            cnt_new = np.where(
                got, np.where(streak_break, 1, cnt_u + 1), np.where(act, 0, cnt_u)
            )
            last_new = np.where(streak_break, wincol, last_u).astype(np.int8)
            dec_now = got & (cnt_new >= beta)
            d_red[rows, u] = dr_u
            d_blue[rows, u] = db_u
            last[rows, u] = last_new

        col[rows, u] = col_new
        cnt[rows, u] = cnt_new
        red_count += col_new.astype(np.int64) - ucol
        iters[rows, u] += act
        decided[rows, u] |= dec_now
        early |= dec_now & (iters[rows, u] < beta)
        dec_count += dec_now
        messages += k * act

        if strategy is Adversary.BALANCE_KEEPER:
            moved = flip & (assign[rows, u] != col_new)
            fl = np.flatnonzero(moved)
            if fl.size:
                uf = u[fl]
                target = col_new[fl]
                assign[fl, uf] = target
                toward_red = target[:, None] == 1
                if snowball:
                    sk = np.where(toward_red, d_red[fl] - d_blue[fl], d_blue[fl] - d_red[fl])
                else:
                    sk = np.where(col[fl] == target[:, None], cnt[fl], -cnt[fl])
                onside = assign[fl] == target[:, None]
                sk = np.where(onside, sk, np.iinfo(np.int64).max)
                loosest = np.argmin(sk, axis=1)
                assign[fl, loosest] = 1 - target

        newly_unanimous = alive & (unanimity < 0) & ((red_count == 0) | (red_count == c))
        unanimity[newly_unanimous] = r
        finished = alive & (dec_count == c)
        rounds[finished] = r
        alive &= ~finished

    # A decided node never queries again, so its decision is still its color
    # (Snowflake) or the color of its last successful query (Snowball).
    decision = last if snowball else col
    red_dec = decided & (decision == 1)
    blue_dec = decided & (decision == 0)
    return SnowBatch(
        c=c,
        rounds=rounds,
        all_decided=dec_count == c,
        safety_violation=red_dec.any(axis=1) & blue_dec.any(axis=1),
        unanimity_round=unanimity,
        early_decision=early,
        messages=messages,
        red_decisions=red_dec.sum(axis=1),
        blue_decisions=blue_dec.sum(axis=1),
    )
