"""Outside-in spans around bnfsim's modules, for the benchmark's traced pass.

Nothing under src/ is edited.  A wrapper replaces a function on the module
that *looks it up*: `from .poly import poisson_bracket` gives birkhoff its own
binding, so patching only poly.poisson_bracket would miss every bracket the
normal form takes.  Each call on a CLI path therefore passes through exactly
one wrapper.

Coarse calls open a span (name, start, end, parent, trace id); the spans of
one CLI command share its trace id.  The high-frequency leaves
(`FieldTable.eval`, `ValueTable.eval`, `classify_exception`) are folded into
a count and a summed time on the span that encloses them, which keeps their
cost to two clock reads each.  A span's self time is its duration
minus its child spans and its folded leaves.  Spans stay in memory until
`dump` writes them out once, at the end of a run.
"""
import functools
import inspect
import json
import time
from collections import Counter, defaultdict

perf = time.perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "trace", "start", "end", "child_s",
                 "leaf", "info")

    def __init__(self, sid, name, parent, trace):
        self.id, self.name, self.parent, self.trace = sid, name, parent, trace
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.leaf = {}   # leaf name -> [calls, seconds, rows]
        self.info = {}

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.dur - self.child_s - sum(a[1] for a in self.leaf.values())

    def as_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "trace": self.trace, "start": self.start, "end": self.end,
                "self_s": self.self_s, "leaf": self.leaf, "info": self.info}


# -- what the notes record -------------------------------------------------


def _bracket_note(args, kwargs, out):
    """Pairs visited and pairs over the cap, from the operands' degree
    histograms: poisson_bracket visits every (f, g) term pair once."""
    f, g = args[0], args[1]
    hf = Counter(m.degree for m in f.terms)
    hg = Counter(m.degree for m in g.terms)
    cap = out.degree_cap
    over = 0 if cap is None else sum(
        nf * ng for df, nf in hf.items() for dg, ng in hg.items()
        if df + dg - 2 > cap)
    return {"pairs": len(f.terms) * len(g.terms), "over_cap": over,
            "out_terms": len(out.terms)}


def _normalize_note(args, kwargs, out):
    # drift-experiment writes no nf.json: the run checks the result here
    return {"rounds": len(out.generators), "Z_terms": len(out.Z.terms),
            "generator_terms": sum(len(c.terms) for c in out.generators),
            "membership_ok": out.membership_ok(),
            "monotone": out.ledger.check()}


def _integrate_note(sig):
    def note(args, kwargs, out):
        b = sig.bind(*args, **kwargs).arguments
        # the integrator's own grid: max(1, round(T / dt)) midpoint steps
        steps = max(1, int(round(b["T"] / b["dt"])))
        return {"steps": steps, "halvings": out.halvings,
                "frames": len(out.times)}
    return note


def _scan_note(args, kwargs, out):
    first = out[0]   # estimates come back sorted by gamma, largest first
    return {"samples": first.samples - first.skipped,
            "hits": sum(first.pattern_histogram.values()),
            "complete": int(all(e.complete for e in out))}


def _rows_note(args, kwargs, out):
    return {"rows": len(out.coeff)}


def _assemble_note(args, kwargs, out):
    return {"P_terms": len(out.P.terms)}


def _field_rows(args):
    return len(args[0].coeff)


def sites(full):
    """(owner, attribute, span name, note, leaf) for every wrapped lookup.

    A span's note turns (args, kwargs, result) into info fields; a leaf's
    note turns args into the rows it evaluated.

    The coarse set (full=False) is what the untraced pass keeps: the
    set-up/solve boundary, the normal forms the run checks, and the two
    status values every run reports.
    """
    from bnfsim import birkhoff, cli, dynamics, fields, resonance
    integ = _integrate_note(inspect.signature(dynamics.integrate))
    coarse = [
        (cli, "build_system", "cli.build_system", None, False),
        (cli, "normalize", "birkhoff.normalize", _normalize_note, False),
        (cli, "measure_scan", "resonance.measure_scan", _scan_note, False),
        (dynamics, "integrate", "dynamics.integrate", integ, False),
    ]
    if not full:
        return coarse
    return coarse + [
        (cli, "drift_experiment", "dynamics.drift_experiment", None, False),
        (cli, "sample_potential", "spectra.sample_potential", None, False),
        (cli, "build_model_hamiltonian", "dynamics.build_model_hamiltonian",
         _assemble_note, False),
        (dynamics, "build_model_hamiltonian",
         "dynamics.build_model_hamiltonian", _assemble_note, False),
        (dynamics, "sturm_liouville", "spectra.sturm_liouville", None, False),
        (dynamics, "apply_transport", "birkhoff.apply_transport", None, False),
        (dynamics, "transport_plan", "birkhoff.transport_plan", None, False),
        (dynamics, "eta_gradient_table", "fields.compile", _rows_note, False),
        (dynamics, "value_table", "fields.compile", _rows_note, False),
        (birkhoff, "poisson_bracket", "poly.poisson_bracket", _bracket_note,
         False),
        (birkhoff, "solve_homological", "birkhoff.solve_homological", None,
         False),
        (birkhoff, "lie_transform", "birkhoff.lie_transform", None, False),
        (birkhoff, "majorant_norm", "norms.majorant_norm", None, False),
        (birkhoff, "eta_gradient_table", "fields.compile", _rows_note, False),
        (resonance, "sample_potential", "spectra.sample_potential", None,
         False),
        (resonance, "classify_exception", "resonance.classify_exception",
         None, True),
        (fields.FieldTable, "eval", "fields.eval", _field_rows, True),
        (fields.ValueTable, "eval", "fields.value_eval", None, True),
    ]


class Tracer:
    """Installs the wrappers, keeps the spans, and puts the originals back."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.saved = []
        self.misses = []     # wrappers that could not be installed or noted
        self._next = 0

    # -- spans --------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(self._next, name, parent.id if parent else None,
                    parent.trace if parent else self._next)
        self._next += 1
        self.stack.append(span)
        span.start = perf()
        return span

    def close(self, span):
        span.end = perf()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += span.dur
        self.spans.append(span)

    # -- wrappers -------------------------------------------------------------

    def install(self, site_list):
        for owner, attr, name, note, leaf in site_list:
            orig = getattr(owner, attr, None)
            if orig is None:
                self.misses.append("%s.%s: not found" % (
                    getattr(owner, "__name__", owner), attr))
                continue
            make = self._leaf if leaf else self._span
            setattr(owner, attr, make(orig, name, note))
            self.saved.append((owner, attr, orig))

    def restore(self):
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved = []

    def _span(self, orig, name, note):
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(span)
            if note is not None:
                try:
                    span.info.update(note(args, kwargs, out))
                except Exception as exc:  # a renamed field must not abort
                    tracer.misses.append("%s note: %s: %s"
                                         % (name, type(exc).__name__, exc))
            return out
        return traced

    def _leaf(self, orig, name, rows):
        stack = self.stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            t0 = perf()
            out = orig(*args, **kwargs)
            dt = perf() - t0
            agg = stack[-1].leaf.get(name)
            if agg is None:
                agg = stack[-1].leaf[name] = [0, 0.0, 0]
            agg[0] += 1
            agg[1] += dt
            if rows is not None:
                agg[2] += rows(args)
            return out
        return traced

    def dump(self, path, extra):
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=[s.as_dict() for s in self.spans],
                           misses=self.misses), fh)
            fh.write("\n")


# -- per-layer metrics of one traced command ---------------------------------


def _pct(values, q):
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    vals = sorted(values)
    return vals[min(len(vals) - 1, max(0, int(round(q * len(vals))) - 1))]


def layer_metrics(spans):
    """Per-layer values of one command, from the spans of its trace id."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    ids = {s.id: s for s in spans}

    def tot(name):
        return sum(s.dur for s in by[name])

    def self_of(name):
        return sum(s.self_s for s in by[name])

    def info(name, key, agg=sum):
        vals = [s.info[key] for s in by[name] if key in s.info]
        return agg(vals) if vals else 0

    def leaf(name, under=None):
        calls = secs = rows = 0
        for s in spans:
            a = s.leaf.get(name)
            if a is None:
                continue
            if under is not None:
                p = s
                while p is not None and p.name != under:
                    p = ids.get(p.parent)
                if p is None:
                    continue
            calls, secs, rows = calls + a[0], secs + a[1], rows + a[2]
        return calls, secs, rows

    def ratio(a, b):
        return a / b if b else 0.0

    ev_calls, ev_s, ev_rows = leaf("fields.eval")
    steps = info("dynamics.integrate", "steps")
    integ_s = tot("dynamics.integrate")
    pairs = info("poly.poisson_bracket", "pairs")
    over = info("poly.poisson_bracket", "over_cap")
    br_s = tot("poly.poisson_bracket")
    frames_ms = [1e3 * s.dur for s in by["birkhoff.apply_transport"]]
    ntr = len(frames_ms)
    cl_calls, cl_s, _ = leaf("resonance.classify_exception")
    return {
        "fields.eval_calls": ev_calls,
        "fields.eval_s": ev_s,
        "fields.eval_us": 1e6 * ratio(ev_s, ev_calls),
        "fields.rows_per_s": ratio(ev_rows, ev_s),
        "fields.compile_s": tot("fields.compile"),
        "fields.table_rows": info("fields.compile", "rows"),
        "fields.value_eval_calls": leaf("fields.value_eval")[0],
        "dynamics.integrate_s": integ_s,
        "dynamics.steps": steps,
        "dynamics.step_us": 1e6 * ratio(integ_s, steps),
        "dynamics.evals_per_step": ratio(
            leaf("fields.eval", "dynamics.integrate")[0], steps),
        "dynamics.halvings": info("dynamics.integrate", "halvings", max),
        "dynamics.frames": info("dynamics.integrate", "frames"),
        "dynamics.observables_s": self_of("dynamics.drift_experiment"),
        "dynamics.assemble_s": self_of("dynamics.build_model_hamiltonian"),
        "dynamics.P_terms": info("dynamics.build_model_hamiltonian",
                                 "P_terms", max),
        "spectra.sturm_liouville_calls": len(by["spectra.sturm_liouville"]),
        "spectra.sturm_liouville_s": tot("spectra.sturm_liouville"),
        "spectra.sample_potential_calls": len(by["spectra.sample_potential"]),
        "spectra.sample_potential_s": tot("spectra.sample_potential"),
        "poly.bracket_calls": len(by["poly.poisson_bracket"]),
        "poly.bracket_s": br_s,
        "poly.bracket_pairs": pairs,
        "poly.bracket_pairs_over_cap": over,
        "poly.bracket_yield": ratio(pairs - over, pairs),
        "poly.bracket_pairs_per_s": ratio(pairs, br_s),
        "poly.bracket_out_terms": info("poly.poisson_bracket", "out_terms"),
        "birkhoff.normalize_s": tot("birkhoff.normalize"),
        "birkhoff.rounds": info("birkhoff.normalize", "rounds"),
        "birkhoff.homological_s": tot("birkhoff.solve_homological"),
        "birkhoff.lie_transform_calls": len(by["birkhoff.lie_transform"]),
        "birkhoff.lie_transform_s": tot("birkhoff.lie_transform"),
        "birkhoff.Z_terms": info("birkhoff.normalize", "Z_terms"),
        "birkhoff.generator_terms": info("birkhoff.normalize",
                                         "generator_terms"),
        "norms.majorant_calls": len(by["norms.majorant_norm"]),
        "norms.majorant_s": tot("norms.majorant_norm"),
        "birkhoff.plan_s": tot("birkhoff.transport_plan"),
        "birkhoff.transport_calls": ntr,
        "birkhoff.transport_s": sum(frames_ms) / 1e3,
        "birkhoff.transport_frame_ms_p50": _pct(frames_ms, 0.5),
        "birkhoff.transport_frame_ms_p90": _pct(frames_ms, 0.9),
        # four field evaluations per classical RK4 step
        "birkhoff.rk4_steps_per_frame": ratio(
            leaf("fields.eval", "birkhoff.apply_transport")[0] / 4.0, ntr),
        "resonance.scan_s": tot("resonance.measure_scan"),
        "resonance.scan_self_s": self_of("resonance.measure_scan"),
        "resonance.classify_calls": cl_calls,
        "resonance.classify_s": cl_s,
        "resonance.samples": info("resonance.measure_scan", "samples"),
        "resonance.hits": info("resonance.measure_scan", "hits"),
        # vacuously complete when the command ran no scan
        "resonance.complete": info("resonance.measure_scan", "complete",
                                   min) if by["resonance.measure_scan"] else 1,
        "cli.self_s": self_of("cli.main"),
    }
