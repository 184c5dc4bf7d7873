"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces the layer functions named in ``LAYERS`` with
wrappers, in every fibperm module namespace that binds them, because
``verify`` and ``cli`` import names directly.  Each wrapper counts calls and
adds its duration to its name's self time and to its caller's child time,
so self time is a span's duration minus the time its child spans cover.

Functions called once per member (``HOT``) are only aggregated.  The rest
also keep a span (name, start, end, parent) in memory, written out by
``write_spans`` when the workload has ended.  ``contains_pattern`` runs
millions of times per verify run, so its wrapper only counts calls and its
time stays in its caller's self time.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# metric group -> (module, attribute) pairs of the functions it wraps
LAYERS = {
    "cli.main": [("cli", "main")],
    "cli.build_parser": [("cli", "build_parser")],
    "cli.render": [("cli", "render_text"), ("cli", "to_json_doc"), ("cli", "_emit_json")],
    "verify.run_verification": [("verify", "run_verification")],
    "verify.check_identity": [("verify", "check_identity")],
    "perms.brute_force_av": [("perms", "brute_force_av")],
    "perms.contains_pattern": [("perms", "contains_pattern")],
    "perms.inversions": [("perms", "inversions")],
    "fib.fib_stat": [("fib", "fib_stat")],
    "fib.fib_number": [("fib", "fib_number")],
    "classes.generate": [("classes", "generate")],
    "classes.decompose": [("classes", "decompose")],
    "bijections": [
        ("bijections", "phi"),
        ("bijections", "phi_inverse"),
        ("bijections", "rho"),
        ("bijections", "rho_inverse"),
    ],
    "stats.distribution_oracle": [("stats", "distribution_oracle")],
    "stats.formula": [
        ("stats", "inv_distribution_formula"),
        ("stats", "fib_distribution_formula"),
        ("stats", "fib_distribution_stated"),
        ("stats", "joint_distribution_formula"),
    ],
    "genfun.genfun_oracle": [("genfun", "genfun_oracle")],
    "genfun.formula": [
        ("genfun", "genfun_closed"),
        ("genfun", "genfun_recurrence"),
        ("genfun", "genfun_addition"),
    ],
}
HOT = {
    "perms.inversions",
    "fib.fib_stat",
    "fib.fib_number",
    "classes.decompose",
    "bijections",
    "stats.formula",
    "genfun.poly_mul",
}
COUNT_ONLY = {"perms.contains_pattern"}
MODULES = ("perms", "fib", "classes", "bijections", "stats", "genfun", "verify", "cli")


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.members: Counter = Counter()
        self.spans: list = []  # (id, name, start, end, parent id or None)
        self._stack: list = []  # [child seconds, span id] per active call
        self._next_id = 0
        self._originals: dict = {}
        self._cache_base: dict = {}
        self.start = time.perf_counter()

    def install(self) -> "Tracer":
        # imported here, after the worker has timed the first import of fibperm
        import importlib

        import fibperm

        modules = [fibperm] + [importlib.import_module(f"fibperm.{m}") for m in MODULES]
        self.modules = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for group, targets in LAYERS.items():
            for module, attr in targets:
                original = getattr(self.modules[module], attr)
                self._originals[(module, attr)] = original
                wrapper = self._wrap(group, original)
                for m in modules:
                    if getattr(m, attr, None) is original:
                        setattr(m, attr, wrapper)
        poly = self.modules["genfun"].Poly
        wrapper = self._wrap("genfun.poly_mul", poly.__mul__)
        poly.__mul__ = poly.__rmul__ = wrapper
        return self

    def _wrap(self, group: str, fn):
        calls, self_s, total_s, members, spans, stack = (
            self.calls, self.self_s, self.total_s, self.members, self.spans, self._stack
        )
        clock = time.perf_counter
        if group in COUNT_ONLY:
            def counted(*args, **kwargs):
                calls[group] += 1
                return fn(*args, **kwargs)
            return counted
        record = group not in HOT
        per_identity = group == "verify.check_identity"
        count_members = group == "classes.generate"
        tracer = self

        def wrapper(*args, **kwargs):
            name = f"verify.{args[0]}" if per_identity else group
            parent = stack[-1] if stack else None
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent[1] if parent else None
            entry = [0.0, span_id]
            stack.append(entry)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                calls[name] += 1
                self_s[name] += d - entry[0]
                total_s[name] += d
                if parent is not None:
                    parent[0] += d
                if record:
                    spans.append((span_id, name, t0, t1, parent[1] if parent else None))
            if count_members:
                members[name] += len(result)
            return result

        return wrapper

    def reset(self, cached: tuple) -> None:
        """Forget everything recorded so far, and count cache lookups of
        the ``(module, attr)`` functions in ``cached`` from here on."""
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.members.clear()
        self.spans.clear()
        self._cache_base = {key: self._cache_info(*key) for key in cached}

    def _cache_info(self, module: str, attr: str) -> tuple:
        fn = self._originals.get((module, attr)) or getattr(self.modules[module], attr)
        info = fn.cache_info()
        return info.hits, info.misses

    def top_level_s(self) -> float:
        """Seconds covered by spans that have no parent span."""
        return sum(end - start for _, _, start, end, parent in self.spans if parent is None)

    def hit_ratio(self, module: str, attr: str) -> float:
        """hits / (hits + misses) of an lru_cache function since the last
        ``reset``; 0 when unused."""
        hits, misses = self._cache_info(module, attr)
        base_hits, base_misses = self._cache_base.get((module, attr), (0, 0))
        hits, lookups = hits - base_hits, hits + misses - base_hits - base_misses
        return hits / lookups if lookups else 0.0

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in sorted(self.spans):
                handle.write(json.dumps({
                    "id": span_id,
                    "name": name,
                    "start": start - self.start,
                    "end": end - self.start,
                    "parent": parent,
                }) + "\n")
