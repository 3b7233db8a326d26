"""Outside-in tracer: spans and counters around probitgp's public functions.

Nothing inside the package is edited.  Tracer.install replaces every public
function of every layer module, in every probitgp namespace that binds it by
name (for example probitgp.cvi.assemble, probitgp.ep.assemble and
probitgp.trainer.assemble all receive the one posterior.assemble wrapper),
plus the scipy entry points the layers bind by name, which get call
counters only.  Tracer.close puts the originals back.

A span is (id, parent, name, start, end).  Spans stay in memory and are
written out by write_spans once the run ends.  A function's self time is
its span duration minus the time covered by its child spans; its total time
is the whole span duration.  kernel.gram builds its matrix with
kernel.cross_gram, so the kernel evaluation inside gram counts as
cross_gram self time; kernel.gram.total_s is the cost of gram itself.
"""

import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = (
    "ais", "cvi", "data", "ep", "harness", "kernel", "likelihood",
    "model_io", "posterior", "trainer", "cli",
)

# scipy functions bound in layer namespaces; wrapped for counts only
SCIPY_ENTRIES = (
    ("kernel", "cholesky"),
    ("posterior", "cholesky"),
    ("posterior", "solve_triangular"),
    ("ais", "log_ndtr"),
)

# (name, unit): every metric a traced run reports, per workload invocation
PER_LAYER = (
    ("ais.ais_lml.self_s", "s"),
    ("ais.ess_step.calls", "count"),
    ("ais.ess_step.self_s", "s"),
    ("ais.loglik_evals", "count"),
    ("ais.proposals_per_step", "evals/step"),
    ("ep.ep_inference.calls", "count"),
    ("ep.ep_inference.self_s", "s"),
    ("ep.sweeps", "count"),
    ("ep.site_updates", "count"),
    ("ep.skipped_sites", "count"),
    ("ep.converged_frac", "ratio"),
    ("cvi.e_step.calls", "count"),
    ("cvi.e_step.self_s", "s"),
    ("cvi.e_step.iters", "count"),
    ("cvi.e_step.diverged", "count"),
    ("trainer.fit.self_s", "s"),
    ("trainer.objective_value.calls", "count"),
    ("trainer.objective_value.self_s", "s"),
    ("trainer.probes_per_round", "probes/round"),
    ("posterior.assemble.calls", "count"),
    ("posterior.assemble.self_s", "s"),
    ("posterior.prior_kl.calls", "count"),
    ("posterior.prior_kl.self_s", "s"),
    ("posterior.latent_predict.self_s", "s"),
    ("posterior.latent_predict.rows", "rows"),
    ("posterior.solve_triangular.calls", "count"),
    ("posterior.cholesky.calls", "count"),
    ("likelihood.expectation_stats.calls", "count"),
    ("likelihood.expectation_stats.points", "points"),
    ("likelihood.expectation_stats.self_s", "s"),
    ("likelihood.ep_tilted_moments.calls", "count"),
    ("likelihood.ep_tilted_moments.self_s", "s"),
    ("kernel.gram.calls", "count"),
    ("kernel.gram.self_s", "s"),
    ("kernel.gram.total_s", "s"),
    ("kernel.gram.jitter_escalations", "count"),
    ("kernel.cholesky.calls", "count"),
    ("kernel.cholesky.failures", "count"),
    ("kernel.cross_gram.self_s", "s"),
    ("harness.grid_sweep.self_s", "s"),
    ("harness.cross_validate.self_s", "s"),
    ("harness.nan_records", "count"),
    ("data.load_csv.self_s", "s"),
    ("data.read_feature_rows.self_s", "s"),
    ("data.standardize.self_s", "s"),
    ("model_io.load_model.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _arg(call, name):
    """Value of the named parameter in call = (fn, args, kwargs), defaults applied."""
    fn, args, kwargs = call
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# Hooks run when a wrapped function returns.  Each gets the tracer's counts,
# the call as (fn, args, kwargs), its result and the change, during the call,
# of the counters it watches.

def _e_step(counts, call, result, delta):
    iters = len(result[1]) - 1
    counts["cvi.e_step.iters"] += iters
    counts["cvi.e_step.diverged"] += iters < _arg(call, "iters")


def _ep_inference(counts, call, result, delta):
    sweeps = delta["posterior.assemble"] - 1  # one assembly before the sweeps
    counts["ep.sweeps"] += sweeps
    counts["ep.site_updates"] += delta["likelihood.ep_tilted_moments"]
    counts["ep.skipped_sites"] += (
        sweeps * np.size(_arg(call, "y")) - delta["likelihood.ep_tilted_moments"]
    )
    counts["ep.converged"] += bool(result[2])


def _ess_step(counts, call, result, delta):
    counts["ais.proposals"] += delta["ais.log_ndtr"]


def _fit(counts, call, result, delta):
    counts["trainer.rounds"] += result.objective_trace.size
    counts["trainer.fit_probes"] += delta["trainer.objective_value"]


def _gram(counts, call, result, delta):
    counts["kernel.gram.jitter_escalations"] += delta["kernel.cholesky.failures"] > 0


def _latent_predict(counts, call, result, delta):
    counts["posterior.latent_predict.rows"] += np.shape(_arg(call, "k_star"))[1]


def _expectation_stats(counts, call, result, delta):
    counts["likelihood.expectation_stats.points"] += np.size(_arg(call, "y"))


def _grid_sweep(counts, call, result, delta):
    counts["harness.nan_records"] += sum(
        np.isnan(r.lml_per_n) or (r.method != "mcmc" and np.isnan(r.lpd_per_n))
        for r in result
    )


def _cross_validate(counts, call, result, delta):
    counts["harness.nan_records"] += sum(
        int(np.isnan(values).sum())
        for table in (result.accuracy, result.lpd)
        for values in table.values()
    )


# name: (counters watched during the call, hook)
HOOKS = {
    "cvi.e_step": ((), _e_step),
    "ep.ep_inference": (("posterior.assemble", "likelihood.ep_tilted_moments"), _ep_inference),
    "ais.ess_step": (("ais.log_ndtr",), _ess_step),
    "trainer.fit": (("trainer.objective_value",), _fit),
    "kernel.gram": (("kernel.cholesky.failures",), _gram),
    "posterior.latent_predict": ((), _latent_predict),
    "likelihood.expectation_stats": ((), _expectation_stats),
    "harness.grid_sweep": ((), _grid_sweep),
    "harness.cross_validate": ((), _cross_validate),
}


class Tracer:
    """Spans, call counts and self times for one run; see the module doc."""

    def __init__(self):
        self.calls = Counter()      # wrapped name -> calls (also "<name>.failures")
        self.self_s = Counter()     # span name -> summed self time
        self.total_s = Counter()    # span name -> summed span duration
        self.counts = Counter()     # hook counters
        self.names = []
        self._ids = array("q")
        self._parents = array("q")
        self._name_ids = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = []            # open spans: [id, child seconds]
        self._next_id = 0
        self._patches = []

    # -- installation ---------------------------------------------------
    def install(self, package):
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._span_wrapper(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for bound_name, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, bound_name, wrapper)
        for layer, attr in SCIPY_ENTRIES:
            module = modules[layer]
            self._patch(module, attr, self._count_wrapper(f"{layer}.{attr}", getattr(module, attr)))
        return self

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def close(self):
        """Restore every patched binding, newest first."""
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- wrappers --------------------------------------------------------
    def _count_wrapper(self, name, fn):
        calls = self.calls
        failures = name + ".failures"

        def counted(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                calls[failures] += 1
                raise

        return counted

    def _span_wrapper(self, name, fn):
        calls, self_s, total_s, stack = self.calls, self.self_s, self.total_s, self._stack
        name_id = len(self.names)
        self.names.append(name)
        watch, hook = HOOKS.get(name, ((), None))
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            before = [calls[w] for w in watch]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self_s[name] += end - start - frame[1]
                total_s[name] += end - start
                calls[name] += 1
                tracer._record(span_id, parent, name_id, start, end)
            if hook is not None:
                delta = {w: calls[w] - b for w, b in zip(watch, before)}
                hook(tracer.counts, (fn, args, kwargs), result, delta)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _record(self, span_id, parent, name_id, start, end):
        self._ids.append(span_id)
        self._parents.append(parent)
        self._name_ids.append(name_id)
        self._starts.append(start)
        self._ends.append(end)

    # -- output ------------------------------------------------------------
    @property
    def span_count(self):
        return len(self._ids)

    def write_spans(self, path):
        """CSV of every span: id, parent (-1 at the top), name, start, end."""
        with open(path, "w") as handle:
            handle.write("id,parent,name,start,end\n")
            for i in range(len(self._ids)):
                handle.write(
                    f"{self._ids[i]},{self._parents[i]},{self.names[self._name_ids[i]]},"
                    f"{self._starts[i]!r},{self._ends[i]!r}\n"
                )

    def layer_metrics(self, invocations, overhead_s):
        """Every PER_LAYER value, per workload invocation."""
        calls, counts = self.calls, self.counts
        ratios = {
            "ais.proposals_per_step": (counts["ais.proposals"], calls["ais.ess_step"]),
            "ep.converged_frac": (counts["ep.converged"], calls["ep.ep_inference"]),
            "trainer.probes_per_round": (counts["trainer.fit_probes"], counts["trainer.rounds"]),
        }
        out = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = overhead_s
            elif name in ratios:
                num, den = ratios[name]
                value = num / den if den else 0.0
            elif name == "ais.loglik_evals":
                value = calls["ais.log_ndtr"] / invocations
            elif name.endswith(".self_s"):
                value = self.self_s[name[:-len(".self_s")]] / invocations
            elif name.endswith(".total_s"):
                value = self.total_s[name[:-len(".total_s")]] / invocations
            elif name.endswith(".calls"):
                value = calls[name[:-len(".calls")]] / invocations
            elif name == "kernel.cholesky.failures":
                value = calls[name] / invocations
            else:
                value = counts[name] / invocations
            out[name] = {"value": value, "unit": unit}
        return out
