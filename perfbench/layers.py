"""Per-layer tracing plan: which binoisy functions are wrapped, at which
lookup sites, what each wrapper counts, and how the per-layer metrics are
assembled from the spans and counts of one traced pass.

The layers are the package's modules. Each module imports the functions it
uses from the others by name, so a function is wrapped at every module that
looks it up (cli, evm_planner, replica_matched, replica_mismatched,
decoupled, montecarlo), never only where it is defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import binoisy.cli
import binoisy.decoupled
import binoisy.evm_planner
import binoisy.montecarlo
import binoisy.numerics
import binoisy.replica_matched
import binoisy.replica_mismatched
from tracing import Tracer

DECOUPLED_FNS = ("postulated_mmse", "true_mse", "cross_entropy",
                 "matched_second_moment", "matched_scalar_mi")
PATHS = ("gaussian", "pam", "cplx")
MC_FNS = ("mc_mi_matched_gaussian", "mc_gmi_gaussian", "mc_mi_matched_discrete")
DEFAULT_ORDER = getattr(binoisy.numerics, "DEFAULT_ORDER", 48)
# Slack the GMI scale search allows above the matched rate before it drops a
# scan point (replica_mismatched._CEILING_TOL at the seed commit).
CEILING_TOL = getattr(binoisy.replica_mismatched, "_CEILING_TOL", 1e-7)


def _path(ctx) -> str:
    """Evaluation path decoupled.py takes for this context's alphabet."""
    c = ctx.constellation
    if c.is_gaussian:
        return "gaussian"
    return "pam" if c.axes is not None else "cplx"


def _split_name(fn: str):
    names = {p: f"decoupled.{fn}.{p}" for p in PATHS}

    def name(args, kwargs):
        ctx = args[0] if args else next(iter(kwargs.values()))
        return names[_path(ctx)]
    return name


# -- count hooks: post(state, args, kwargs, result) / pre(state, args, kwargs)

def _matched_iters(st, args, kwargs, res):
    st.counts["replica_matched.fp_iterations"] += res.iterations


def _gmi_iters(st, args, kwargs, res):
    st.counts["replica_mismatched.fp_iterations"] += res.iterations


def _planner_solve(inner):
    def post(st, args, kwargs, res):
        st.counts["evm_planner.solves"] += 1
        inner(st, args, kwargs, res)
    return post


def _gmi_start(st, args, kwargs):
    # Gaussian inputs never consult the matched ceiling.
    st.ceiling = math.inf


def _ceiling_solved(st, args, kwargs, res):
    st.ceiling = res.rate_nats + CEILING_TOL if res.converged else math.inf


def _scan_point(st, args, kwargs, res):
    value, aux = res
    if aux.converged and value <= st.ceiling:
        st.counts["replica_mismatched.gmi_at_s.useful"] += 1


def _fixed_point(st, args, kwargs, res):
    st.counts["numerics.damped_fixed_point.iterations"] += res.iterations
    if not res.converged:
        st.counts["numerics.damped_fixed_point.unconverged"] += 1


def _count_objective(st, args, kwargs):
    counts = st.counts
    if args:
        f, rest = args[0], args[1:]
    else:
        kwargs = dict(kwargs)
        f, rest = kwargs.pop("f"), ()

    def counted(x):
        counts["numerics.maximize_scalar.evaluations"] += 1
        return f(x)
    return (counted, *rest), kwargs


def _order(args, kwargs, pos):
    return args[pos] if len(args) > pos else kwargs.get("order", DEFAULT_ORDER)


def _real_nodes(st, args, kwargs):
    means = args[0] if args else kwargs["means"]
    st.counts["decoupled.quad_nodes"] += len(means) * _order(args, kwargs, 3)


def _complex_nodes(st, args, kwargs):
    if args:
        comps, rest = list(args[0]), args[1:]
    else:
        kwargs = dict(kwargs)
        comps, rest = list(kwargs.pop("components")), ()
    st.counts["decoupled.quad_nodes"] += len(comps) * _order(args, kwargs, 2) ** 2
    return (comps, *rest), kwargs


def _mc_settings(args, kwargs, pos):
    return args[pos] if len(args) > pos else kwargs["settings"]


def _mc_gaussian(st, args, kwargs, res):
    st.counts["montecarlo.channels"] += _mc_settings(args, kwargs, 1).n_channels


def _mc_discrete(st, args, kwargs, res):
    settings = _mc_settings(args, kwargs, 2)
    cfg = args[0] if args else kwargs["cfg"]
    con = args[1] if len(args) > 1 else kwargs["constellation"]
    lattice = con.size ** cfg.M
    st.counts["montecarlo.channels"] += settings.n_channels
    st.counts["montecarlo.noise_draws"] += settings.n_channels * settings.n_noise
    st.counts["montecarlo.lattice_points"] += lattice
    # distance matrix of the whitened lattice, float64, one per channel
    st.counts["montecarlo.lattice_bytes_computed"] += settings.n_channels * lattice * lattice * 8


def install(tracer: Tracer) -> None:
    """Patch every traced name; tracer.uninstall() restores them."""
    T = tracer
    cli = binoisy.cli
    ep = binoisy.evm_planner
    rm = binoisy.replica_matched
    rmm = binoisy.replica_mismatched
    dc = binoisy.decoupled
    mc = binoisy.montecarlo

    def w(name, pre=None, post=None):
        return lambda fn: T.wrap(fn, name, pre, post)

    def dispatch_factory(dispatch):
        def traced_dispatch(points, worker):
            parent = T.current_span()

            def point_worker(point):
                with T.span("cli.point", parent=parent, new_request=True):
                    return worker(point)
            return dispatch(points, point_worker)
        return traced_dispatch

    # cli: one request per grid point
    T.patch(cli, "_dispatch", dispatch_factory)
    for mod in (cli, ep):
        T.patch(mod, "make_config", w("model.make_config"))
        T.patch(mod, "make_constellation", w("model.make_constellation"))
    T.patch(cli, "matched_mi", w("replica_matched.matched_mi", post=_matched_iters))
    T.patch(cli, "gmi", w("replica_mismatched.gmi", pre=_gmi_start, post=_gmi_iters))
    T.patch(cli, "max_evm_for_loss", w("evm_planner.max_evm_for_loss"))
    T.patch(cli, "mc_mi_matched_gaussian", w("montecarlo.mc_mi_matched_gaussian", post=_mc_gaussian))
    T.patch(cli, "mc_gmi_gaussian", w("montecarlo.mc_gmi_gaussian", post=_mc_gaussian))
    T.patch(cli, "mc_mi_matched_discrete", w("montecarlo.mc_mi_matched_discrete", post=_mc_discrete))
    # evm_planner: every rate solve the bisection asks for
    T.patch(ep, "matched_mi", w("replica_matched.matched_mi", post=_planner_solve(_matched_iters)))
    T.patch(ep, "gmi", w("replica_mismatched.gmi", pre=_gmi_start, post=_planner_solve(_gmi_iters)))
    # replica_matched
    T.patch(rm, "solve_matched_primary", w("replica_matched.solve_matched_primary"))
    T.patch(rm, "damped_fixed_point", w("numerics.damped_fixed_point", post=_fixed_point))
    for fn in ("matched_second_moment", "matched_scalar_mi"):
        T.patch(rm, fn, w(_split_name(fn)))
    # replica_mismatched: the matched ceiling gets its own span around matched_mi
    T.patch(rmm, "matched_mi", lambda fn: T.wrap(
        T.wrap(fn, "replica_matched.matched_mi", post=_matched_iters),
        "replica_mismatched.ceiling", post=_ceiling_solved))
    T.patch(rmm, "gmi_at_s", w("replica_mismatched.gmi_at_s", post=_scan_point))
    for fn in ("solve_xi_discrete", "solve_eta_eps", "free_energy"):
        T.patch(rmm, fn, w(f"replica_mismatched.{fn}"))
    T.patch(rmm, "damped_fixed_point", w("numerics.damped_fixed_point", post=_fixed_point))
    T.patch(rmm, "maximize_scalar", w("numerics.maximize_scalar", pre=_count_objective))
    for fn in ("postulated_mmse", "true_mse", "cross_entropy"):
        T.patch(rmm, fn, w(_split_name(fn)))
    # decoupled: quadrature kernels
    T.patch(dc, "real_mixture_expectation", w("numerics.real_mixture_expectation", pre=_real_nodes))
    T.patch(dc, "mixture_expectation", w("numerics.mixture_expectation", pre=_complex_nodes))
    # montecarlo
    T.patch(mc, "maximize_scalar", w("numerics.maximize_scalar", pre=_count_objective))


@dataclass
class TracedPass:
    tracer: Tracer
    wall: float
    hermgauss_hits: int
    hermgauss_misses: int


def traced_pass(runner, calls) -> TracedPass:
    """Run calls once with every layer wrapped."""
    cache_info = getattr(binoisy.numerics.hermgauss_nodes, "cache_info", None)
    before = cache_info() if cache_info else None
    tracer = Tracer()
    install(tracer)
    try:
        wall, _ = runner.run(calls, tracer=tracer)
    finally:
        tracer.uninstall()
    after = cache_info() if cache_info else None
    hits = after.hits - before.hits if after else 0
    misses = after.misses - before.misses if after else 0
    return TracedPass(tracer, wall, hits, misses)


def metrics(tp: TracedPass, wall_u: float, wall_1: float, n_spans: int, results: list) -> dict:
    """Per-layer metrics as {name: (value, unit)}, in a fixed order. results
    are the checked points of every pass."""
    summ = tp.tracer.summary()
    counts = tp.tracer.counts()
    out = {}

    def fn(span, self_time=True):
        calls, busy, own = summ.get(span, (0, 0.0, 0.0))
        out[f"{span}.calls"] = (calls, "count")
        out[f"{span}.busy_s"] = (busy, "s")
        if self_time:
            out[f"{span}.self_s"] = (own, "s")
        return calls

    def ratio(num, den):
        return num / den if den else 0.0

    main_calls, main_busy, main_self = summ.get("cli.main", (0, 0.0, 0.0))
    points, _, point_self = summ.get("cli.point", (0, 0.0, 0.0))
    out["cli.main.calls"] = (main_calls, "count")
    out["cli.main.busy_s"] = (main_busy, "s")
    out["cli.point.calls"] = (points, "count")
    out["cli.self_s"] = (main_self + point_self, "s")
    out["cli.parallel_speedup"] = (ratio(wall_1, wall_u), "ratio")

    plans = fn("evm_planner.max_evm_for_loss")
    out["evm_planner.solves"] = (counts["evm_planner.solves"], "count")
    out["evm_planner.solves_per_plan"] = (ratio(counts["evm_planner.solves"], plans), "ratio")

    fn("replica_matched.matched_mi")
    fn("replica_matched.solve_matched_primary")
    out["replica_matched.fp_iterations"] = (counts["replica_matched.fp_iterations"], "count")

    n_gmi = fn("replica_mismatched.gmi")
    n_scan = fn("replica_mismatched.gmi_at_s")
    out["replica_mismatched.gmi_at_s.per_gmi"] = (ratio(n_scan, n_gmi), "ratio")
    out["replica_mismatched.scan_useful_frac"] = (
        ratio(counts["replica_mismatched.gmi_at_s.useful"], n_scan), "ratio")
    out["replica_mismatched.ceiling_s"] = (summ.get("replica_mismatched.ceiling", (0, 0.0, 0.0))[1], "s")
    out["replica_mismatched.fp_iterations"] = (counts["replica_mismatched.fp_iterations"], "count")
    for name in ("solve_xi_discrete", "solve_eta_eps", "free_energy"):
        fn(f"replica_mismatched.{name}")

    for name in DECOUPLED_FNS:
        parts = [summ.get(f"decoupled.{name}.{p}", (0, 0.0, 0.0)) for p in PATHS]
        out[f"decoupled.{name}.calls"] = (sum(p[0] for p in parts), "count")
        out[f"decoupled.{name}.busy_s"] = (sum(p[1] for p in parts), "s")
        out[f"decoupled.{name}.self_s"] = (sum(p[2] for p in parts), "s")
        for p in PATHS:
            fn(f"decoupled.{name}.{p}", self_time=False)
    out["decoupled.quad_nodes"] = (counts["decoupled.quad_nodes"], "count")

    fn("numerics.damped_fixed_point")
    out["numerics.damped_fixed_point.iterations"] = (counts["numerics.damped_fixed_point.iterations"], "count")
    out["numerics.damped_fixed_point.unconverged"] = (counts["numerics.damped_fixed_point.unconverged"], "count")
    fn("numerics.maximize_scalar")
    out["numerics.maximize_scalar.evaluations"] = (counts["numerics.maximize_scalar.evaluations"], "count")
    out["numerics.hermgauss_nodes.hits"] = (tp.hermgauss_hits, "count")
    out["numerics.hermgauss_nodes.misses"] = (tp.hermgauss_misses, "count")
    fn("numerics.mixture_expectation")
    fn("numerics.real_mixture_expectation")

    mc_busy = 0.0
    for name in MC_FNS:
        fn(f"montecarlo.{name}")
        mc_busy += summ.get(f"montecarlo.{name}", (0, 0.0, 0.0))[1]
    channels = counts["montecarlo.channels"]
    out["montecarlo.channels"] = (channels, "count")
    out["montecarlo.channels_per_s"] = (ratio(channels, mc_busy), "1/s")
    out["montecarlo.noise_draws"] = (counts["montecarlo.noise_draws"], "count")
    out["montecarlo.lattice_points"] = (counts["montecarlo.lattice_points"], "count")
    out["montecarlo.lattice_bytes_computed"] = (counts["montecarlo.lattice_bytes_computed"], "B")

    fn("model.make_config")
    fn("model.make_constellation")

    out["output.failed_frac"] = (ratio(sum(1 for r in results if not r.ok), len(results)), "ratio")
    out["output.max_rate_err_bits"] = (max((r.rate_err_bits for r in results), default=0.0), "bits")
    out["trace.overhead_s"] = (tp.wall - wall_u, "s")
    out["trace.spans"] = (n_spans, "count")
    return out
