"""Traced run: spans per command and stage, aggregated probes per hot function.

Nothing in pcert changes. Wrappers are installed from here on every module
binding of a function (modules import functions by name, so patching the
defining module alone would miss most callers) and on the class for methods,
and removed again afterwards.

Two kinds of record are kept in memory:

* spans, one per command invocation and one per pipeline stage inside it,
  each with name, start, end, parent and invocation id;
* probes, one per hot function, which aggregate instead of recording each of
  the millions of calls: the number of outermost calls, their busy time, and
  the self time of the probe's layer (busy time minus the time spent in
  probes of nested calls). A call made while the same probe is already
  active (recursion, direct or through helpers) passes straight through.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter


class Probe:
    __slots__ = ("layer", "calls", "busy", "active")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.busy = 0.0
        self.active = False


class Tracer:
    def __init__(self):
        self.probes: dict[str, Probe] = {}
        # (stage, layer) -> self seconds; the stage is "" outside any stage
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        # (stage, probe) -> outermost calls, and their busy seconds
        self.stage_calls: Counter[tuple[str, str]] = Counter()
        self.stage_time: dict[tuple[str, str], float] = defaultdict(float)
        self.frames: list[list[float]] = [[0.0]]
        self.spans: list[dict] = []
        self.counts: Counter[str] = Counter()
        self.stage = ""
        self.invocation = -1
        self.invocation_span = -1
        self.stage_seen: Counter[str] = Counter()
        self.pending_rule: str | None = None
        self.rule_names: dict[int, str] = {}
        self._undo: list[tuple[object, str, object]] = []

    # - installing -

    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _rebind(self, original: object, wrapper: object) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "pcert" or mod_name.startswith("pcert."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def probe_function(self, key: str, layer: str, original, on_result=None) -> None:
        self._rebind(original, self._wrap(key, layer, original, on_result))

    def probe_method(self, key: str, layer: str, cls: type, name: str, on_result=None) -> None:
        self._set(cls, name, self._wrap(key, layer, getattr(cls, name), on_result))

    def _wrap(self, key: str, layer: str, fn, on_result):
        probe = self.probes[key] = Probe(layer)
        frames, self_time, stage_calls, stage_time = self.frames, self.self_time, self.stage_calls, self.stage_time
        tracer = self

        def probed(*args, **kwargs):
            if probe.active:
                return fn(*args, **kwargs)
            probe.active = True
            frame = [0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                frames.pop()
                probe.active = False
                probe.calls += 1
                probe.busy += elapsed
                self_time[tracer.stage, probe.layer] += elapsed - frame[0]
                stage_calls[tracer.stage, key] += 1
                stage_time[tracer.stage, key] += elapsed
                frames[-1][0] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        return probed

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # - spans -

    def open_span(self, name: str, parent: int) -> int:
        self.spans.append(
            {"id": len(self.spans), "name": name, "start": perf_counter(), "end": None,
             "parent": parent, "invocation": self.invocation}
        )
        return len(self.spans) - 1

    def close_span(self, span: int) -> None:
        self.spans[span]["end"] = perf_counter()

    def begin_invocation(self, command: str) -> None:
        self.invocation += 1
        self.stage_seen.clear()
        self.invocation_span = self.open_span(command, -1)

    def end_invocation(self) -> None:
        self.close_span(self.invocation_span)

    def stage_wrapper(self, first: str, later: str | None, fn, decls_of=None):
        """A pipeline stage of a cli command: the first call in an invocation
        is `first`, any later one `later`. Calls made while another stage is
        open belong to that stage."""
        tracer = self

        def staged(*args, **kwargs):
            if tracer.stage:
                return fn(*args, **kwargs)
            name = later if later is not None and tracer.stage_seen[first] else first
            tracer.stage_seen[first] += 1
            if decls_of is not None:
                tracer.counts[f"decls.{name}"] += decls_of(args)
            span = tracer.open_span(name, tracer.invocation_span)
            tracer.stage = name
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.stage = ""
                tracer.close_span(span)

        return staged

    def stage_busy(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name and s["parent"] != -1)


def install(tracer: Tracer) -> None:
    """Probe every hot function and every pipeline stage of the cli."""
    from pcert import checker, cli, export, inverse, kernel, lf, pcert, rewrite, syntax, terms, translate

    for prefix, rules in (("pcert", pcert.BETA_PROJ), ("lf", lf.RULES_R)):
        for rule in rules.rules:
            tracer.rule_names[id(rule.lhs)] = f"{prefix}.{rule.name}"

    counts = tracer.counts

    def on_match(args, result):
        # outermost matches are rule attempts; a hit on a rule's left side
        # fires that rule once Fuel.spend accepts the step
        counts["match.attempts"] += 1
        if result is not None:
            counts["match.hits"] += 1
            tracer.pending_rule = tracer.rule_names.get(id(args[0]))

    original_spend = rewrite.Fuel.spend

    def spend(self, at):
        try:
            original_spend(self, at)
        except BaseException:
            tracer.pending_rule = None
            raise
        counts["steps"] += 1
        if tracer.pending_rule is None:
            counts["beta_steps"] += 1
        else:
            counts[f"fired.{tracer.pending_rule}"] += 1
            tracer.pending_rule = None

    tracer._set(rewrite.Fuel, "spend", spend)

    # hot functions of the layers below the cli; each wrapper calls the
    # original, which reaches the other wrappers through its module's
    # bindings at call time
    tracer.probe_method("terms.lookup", "terms", terms.Context, "lookup")
    tracer.probe_method("terms.extend", "terms", terms.Context, "extend")
    tracer.probe_function("terms.subst", "terms", terms.substitute_parallel)
    tracer.probe_function("terms.instantiate", "terms", terms.instantiate)
    tracer.probe_function("rewrite.match", "rewrite", rewrite.match, on_match)
    tracer.probe_function("rewrite.whnf", "rewrite", rewrite.whnf)
    tracer.probe_function("rewrite.normalize", "rewrite", rewrite.normalize)
    tracer.probe_function("pcert.erase", "pcert", pcert.pi_erase)
    _probe_convert(tracer, "pcert.convert", "pcert", pcert.PcertKernel)
    _probe_convert(tracer, "lf.convert", "lf", lf.LfKernel)
    tracer.probe_function("lf.gate", "lf", lf.assert_public)
    for name in ("infer", "whnf", "sort_of", "check"):
        tracer.probe_method(f"kernel.{name}", "kernel", kernel.Kernel, name)
    tracer.probe_function("translate.term", "translate", translate.translate_term)
    tracer.probe_function("translate.type", "translate", translate.translate_type)
    tracer.probe_function(
        "inverse", "inverse", inverse.inverse_term,
        lambda args, result: counts.update(["inverse.not_in_image"] if isinstance(result, inverse.NotInImage) else []),
    )
    tracer.probe_function("export", "export", export.export_lambdapi)

    def count_bytes(args, result):
        counts["parse.bytes"] += len(args[0].encode("utf-8"))

    tracer.probe_function("syntax.parse", "syntax", syntax.parse_file, count_bytes)
    tracer.probe_function("syntax.print", "syntax", syntax.print_file)
    tracer.probe_function("checker", "checker", checker.check_file)

    original_exit_code = cli._exit_code

    def exit_code(err):
        counts[f"failures.{err.kind}"] += 1
        return original_exit_code(err)

    tracer._set(cli, "_exit_code", exit_code)

    # stages: wrap the cli's own bindings around the probed functions
    def file_decls(args):
        return len(args[0].decls)

    for name, first, later, decls_of in (
        ("parse_file", "parse", "reparse", None),
        ("check_file", "check", "recheck", None),
        ("_translate_decls", "translate", None, file_decls),
        ("print_file", "print", None, None),
        ("translate_term", "translate", None, lambda args: 1),
        ("inverse_term", "inverse", None, None),
        ("normalize", "beta_compare", None, None),
        ("export_lambdapi", "export", None, None),
    ):
        tracer._set(cli, name, tracer.stage_wrapper(first, later, getattr(cli, name), decls_of))


def _probe_convert(tracer: Tracer, key: str, layer: str, cls: type) -> None:
    """A convert call is syntactic when it returns without normalizing."""
    original = getattr(cls, "convert")
    counts = tracer.counts

    def convert(self, ctx, a, b, fuel):
        before = tracer.probes["rewrite.normalize"].calls
        result = original(self, ctx, a, b, fuel)
        if tracer.probes["rewrite.normalize"].calls == before:
            counts[f"{key}.syntactic"] += 1
        return result

    tracer._set(cls, "convert", convert)
    tracer.probe_method(key, layer, cls, "convert")
