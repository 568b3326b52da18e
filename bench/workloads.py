"""Seeded experiment generators for the three benchmark workloads.

Each workload yields CLI experiments in rounds.  A round is a fixed
stratified design: every slot has its kind (exact form or generic alpha,
mollified or not, max or min mode) and a bin of each range (T, alpha, N),
and the bins rotate from round to round.  The seed draws the values inside
the bins (in resonate_sweep only near their middle) and beta; the exact
forms of moment_sweep and resonate_sweep and the first experiment of a run
sit on fixed values of T.  So no two experiments share parameters while the
mix of work in a run, and with it the run's statistics, hardly depends on
the seed.
Draws come from the stdlib `random.Random` seeded with a string, which gives
the same inputs for the same seed on every platform.
"""
import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

# zetaprog.zeta.RS_MIN_T when the workloads were sized; run.py warns if the
# package's value differs (the inputs do not follow it).
RS_MIN_T = 2000.0

# Exact forms (ell0, m, n): exp(2*pi*ell0/alpha) = m/n.
MOMENT_FORMS = ((1, 2, 1), (1, 3, 1), (1, 3, 2), (2, 5, 1))
RESONATE_FORMS = ((1, 2, 1), (1, 3, 2))
# Lowest T of each resonate exact form's grid.
EXACT_T = {(1, 2, 1): 3400.0, (1, 3, 2): 3000.0}


@dataclass(frozen=True)
class Experiment:
    """One CLI call.  `argv` excludes the --json/--csv output paths."""

    index: int
    round: int                          # the round it belongs to; the first call is in round 0
    subcommand: str
    T: float
    alpha: Optional[float] = None       # generic slope, None for exact forms
    form: Optional[Tuple[int, int, int]] = None
    beta: float = 0.0
    theta: Optional[float] = None
    N: Optional[int] = None
    mode: Optional[str] = None
    argv: tuple = field(default=(), compare=False)

    @property
    def points(self) -> int:
        """Progression points ell in [T, 2T] the experiment asks for."""
        return math.floor(2.0 * self.T) - math.ceil(self.T) + 1

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def slope(self) -> float:
        if self.form is None:
            return self.alpha
        ell0, m, n = self.form
        return 2.0 * math.pi * ell0 / math.log(m / n)


def _argv(subcommand, T, alpha, form, beta, theta, N=None, mode=None):
    out = [subcommand]
    if form is None:
        out += ["--alpha", repr(alpha)]
    else:
        out += ["--alpha-rational", "%d:%d:%d" % form]
    out += ["--beta", repr(beta), "--T", repr(T)]
    if theta is not None:
        out += ["--theta", repr(theta)]
    if N is not None:
        out += ["--N", str(N), "--mode", mode]
    return tuple(out)


def _bin(rng: random.Random, k: int, i: int, lo: float, hi: float,
         share: float = 1.0) -> float:
    """A uniform draw inside bin i of k equal bins of [lo, hi], confined to
    the middle `share` of the bin."""
    return lo + (hi - lo) * ((i % k) + 0.5 * (1.0 - share) + share * rng.random()) / k


def _r(x: float, digits: int = 4) -> float:
    return round(x, digits)


def _moment_round(rng, r):
    """8 experiments: each exact form once and 4 generic slopes, half of
    them mollified (theta 0.3 or 0.4), prediction on.

    T in [800, 1600] and alpha*T >= 1.05*RS_MIN_T, so every height is on
    the RS engine.  Slot i takes T bin (i + r) mod 8.  The exact forms sit
    on a fixed grid of (T, beta) that the seed does not move: how many times
    their continuous moment refines (2 to 4 levels) jumps with small changes
    of T and beta, and seeded draws would make the run's tail depend on the
    seed.  The seed draws the generic slopes, their T and beta.
    """
    out = []
    for i in range(8):
        theta = (0.3, 0.4)[(i + r) // 2 % 2] if (i + r) % 2 else None
        if i < 4:
            T = 850.0 + 100.0 * ((i + r) % 8) + r
            out.append(dict(subcommand="moment", T=T, form=MOMENT_FORMS[i],
                            beta=((i + 3 * r) % 8 + 0.5) / 8, theta=theta))
        else:
            T = _r(_bin(rng, 8, i + r, 800.0, 1600.0), 2)
            lo = max(1.0, 1.05 * RS_MIN_T / T)
            out.append(dict(subcommand="moment", T=T, alpha=_r(_bin(rng, 4, i + r, lo, 3.0)),
                            beta=_r(rng.random()), theta=theta))
    return out


def _firstmoment_round(rng, r):
    """6 experiments: theta unset, 0.3 and 0.4 twice each; slot i takes
    T bin (i + r) mod 6 of [100, 240] and alpha bin (i + 2r + 3) mod 6 of
    [0.8, 1.8].  2*alpha*T + beta < RS_MIN_T: every point is on EM.
    """
    out = []
    for i in range(6):
        T = _r(_bin(rng, 6, i + r, 100.0, 240.0), 2)
        alpha = _r(_bin(rng, 6, i + 2 * r + 3, 0.8, 1.8))
        beta = _r(rng.random())
        if 2.0 * alpha * T + beta >= RS_MIN_T:
            raise ValueError("firstmoment_em heights must stay below RS_MIN_T")
        out.append(dict(subcommand="firstmoment", T=T, alpha=alpha, form=None,
                        beta=beta, theta=(None, 0.3, 0.4)[i % 3]))
    return out


def _resonate_round(rng, r):
    """8 experiments: 3 exact forms (main_sum_grid's direct O(points*T)
    path) and 5 generic slopes (its zeta-backed path); max and min
    alternate, N takes bin (i + 3r) mod 8 of [100, 400].

    The exact forms sit on a fixed grid of T that the seed does not move:
    1:2:1 at T in [3400, 3800] and 1:3:2 at T in [3000, 3400], about 1.0 to
    1.5 s each, slower than every generic experiment.  With 3 of 8 of them
    the median lies among the generic experiments and p75 among the exact
    forms; with 2 of 8, p75 fell on the gap between the two kinds and moved
    with every draw near it.

    The generic slopes take T bin (j + r) mod 5 of [8000, 16000] and alpha
    bin (j + 2r) mod 5 of [0.8, 1.45], so five rounds hold every pair of
    bins once.  The seed moves each draw only within the middle fifth of its
    bin, and T stays above max t / 3, main_sum_grid's cutoff.
    """
    out = []
    for i in range(8):
        N = int(_bin(rng, 8, i + 3 * r, 100.0, 401.0))
        mode = ("max", "min")[(i + r) % 2]
        if i < 3:
            form = RESONATE_FORMS[(i + r) % 2]
            T, alpha = EXACT_T[form] + 100.0 * ((i + 2 * r) % 5) + r, None
        else:
            j = i - 3
            T, form, alpha = (_bin(rng, 5, j + r, 8.0e3, 1.6e4, share=0.2), None,
                              _r(_bin(rng, 5, j + 2 * r, 0.8, 1.45, share=0.2)))
        out.append(dict(subcommand="resonate", T=_r(T, 1), alpha=alpha, form=form,
                        beta=_r(rng.random()), N=N, mode=mode))
    return out


# The first experiment of every run is the workload's largest working set,
# so that the run's peak RSS does not depend on how many experiments fit in
# it.  For moment_sweep it is fixed: a continuous moment at the top T and
# theta that refines to 4 levels (the level count of nearby inputs varies);
# for resonate_sweep it is main_sum_grid's direct path at T = 7900, which
# holds about 1 GB; the seed draws beta and N.
_FIRST = {
    "moment_sweep": lambda rng: dict(subcommand="moment", T=1600.0, form=(1, 3, 2),
                                     beta=0.5, theta=0.4),
    "resonate_sweep": lambda rng: dict(subcommand="resonate", T=7900.0,
                                       form=(1, 2, 1), beta=_r(rng.random()),
                                       N=rng.randint(100, 400), mode="max"),
}

_ROUNDS = {
    "moment_sweep": _moment_round,
    "firstmoment_em": _firstmoment_round,
    "resonate_sweep": _resonate_round,
}

WORKLOADS = tuple(_ROUNDS)

# Fixed warm-up call per workload: it fills every lazy table the workload's
# experiments touch (RS Chebyshev fits, the H spline, Legendre rules).
WARMUP = {
    "moment_sweep": ("moment", "--alpha-rational", "1:2:1", "--T", "250",
                     "--theta", "0.3"),
    "firstmoment_em": ("firstmoment", "--alpha", "1", "--T", "100",
                       "--theta", "0.3"),
    "resonate_sweep": ("resonate", "--alpha-rational", "1:2:1", "--T", "300",
                       "--N", "100", "--mode", "max"),
}

# Mean seconds of one experiment on the 2-core box the workloads were sized
# on.  run.py turns --seconds into a count of experiments with it, so the
# work in a run is fixed for a seed and does not grow or shrink with the
# speed of the machine.
EXPERIMENT_S = {"moment_sweep": 0.57, "firstmoment_em": 0.45, "resonate_sweep": 0.9}

# Experiments in the traced run: a fixed prefix, so counts repeat exactly.
TRACE_PREFIX = {"moment_sweep": 16, "firstmoment_em": 18, "resonate_sweep": 16}


def experiments(workload: str, seed: int) -> Iterator[Experiment]:
    """The workload's experiments for this seed, round after round, forever."""
    make_round = _ROUNDS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    first = [_FIRST[workload](rng)] if workload in _FIRST else []
    index = 0
    r = 0
    while True:
        for spec in first + make_round(rng, r):
            argv = _argv(spec["subcommand"], spec["T"], spec.get("alpha"),
                         spec.get("form"), spec["beta"], spec.get("theta"),
                         spec.get("N"), spec.get("mode"))
            yield Experiment(index=index, round=r, argv=argv, **spec)
            index += 1
        first = []
        r += 1
