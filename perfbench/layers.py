"""Per-layer counters and spans for the traced run.

Each layer's public functions are wrapped where they are bound, from the
benchmark's own files; nothing is traced inside the program.  A name bound
in two modules is wrapped in both (`ranksets` and `satkit` each bind
`solve`, `swf` and `orders` each bind `all_profiles`), and the auction rules
are wrapped inside the `RULES` table the CLI reads them from.  Times are
inclusive: `swf.classify_s` contains `swf.range_of_s`.
"""

from __future__ import annotations

import contextlib
import json
import time
import types
from typing import Callable

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.serialize_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("orders.profiles_built", "count", "lower"),
    ("swf.enumerate_calls", "count", "lower"),
    ("swf.enumerate_s", "s", "lower"),
    ("swf.classify_calls", "count", "lower"),
    ("swf.classify_s", "s", "lower"),
    ("swf.range_of_s", "s", "lower"),
    ("swf.evaluate_calls", "count", "lower"),
    ("satkit.encode_s", "s", "lower"),
    ("satkit.solve_calls", "count", "lower"),
    ("satkit.solve_s", "s", "lower"),
    ("satkit.solve_clauses", "count", "lower"),
    ("satkit.allsat_s", "s", "lower"),
    ("satkit.models", "count", "higher"),
    ("satkit.models_per_solve", "models/solve", "higher"),
    ("satkit.decode_s", "s", "lower"),
    ("ranksets.encode_calls", "count", "lower"),
    ("ranksets.encode_s", "s", "lower"),
    ("ranksets.clauses", "count", "lower"),
    ("ranksets.ground_s", "s", "lower"),
    ("ranksets.decode_s", "s", "lower"),
    ("auctions.sweep_s", "s", "lower"),
    ("auctions.cells", "count", "lower"),
    ("auctions.rule_calls", "count", "lower"),
    ("auctions.rule_s", "s", "lower"),
    ("auctions.amount_conversions", "count", "lower"),
)

Amount = Callable[[tuple, object], int]


class Tracer:
    """Accumulates counters and spans in memory while the wrapped code runs."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = {name: 0 for name, _, _ in PER_LAYER}
        self.totals["satkit.allsat_solves"] = 0
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.paused = 0.0  # seconds the benchmark's own signal handler has run
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self, name: str) -> tuple[int, int | None, float]:
        sid, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name: str, sid: int, parent: int | None, start: float) -> float:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append({"id": sid, "parent": parent, "name": name, "start": start, "end": end})
        return end - start

    @contextlib.contextmanager
    def root(self, name: str):
        """A span around one whole operation; the layers' spans nest inside it."""
        opened = self._open(name)
        try:
            yield
        finally:
            self._close(name, *opened)

    def wrap(
        self,
        original: Callable,
        name: str,
        *,
        calls: str | None = None,
        seconds: str | None = None,
        amounts: tuple[tuple[str, Amount], ...] = (),
        nested: tuple[str, str] | None = None,
        span: bool = False,
    ) -> Callable:
        totals = self.totals
        if seconds is None and not amounts and nested is None and not span:

            def counted(*args, **kwargs):
                totals[calls] += 1
                return original(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            if calls:
                totals[calls] += 1
            before = totals[nested[0]] if nested else 0
            paused = self.paused
            if span:
                opened = self._open(name)
            else:
                started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = self._close(name, *opened) if span else time.perf_counter() - started
                if seconds:
                    totals[seconds] += elapsed - (self.paused - paused)
            if nested:
                totals[nested[1]] += totals[nested[0]] - before
            for key, amount in amounts:
                totals[key] += amount(args, result)
            return result

        return traced

    def hook(self, namespace, attr: str, **how) -> None:
        """Replace namespace.attr by its traced wrapper, noting names that are gone."""
        original = getattr(namespace, attr, None)
        if not callable(original):
            self.missing.append(f"{namespace.__name__}.{attr}")
            return
        setattr(namespace, attr, self.wrap(original, f"{namespace.__name__}.{attr}", **how))

    def install(self) -> None:
        """Wrap the public functions of every layer of the program."""
        from implab import auctions, cli, orders, ranksets, satkit, swf

        serializer = types.ModuleType("json")
        serializer.__dict__.update(json.__dict__)
        self.hook(
            serializer,
            "dumps",
            seconds="cli.serialize_s",
            amounts=(("cli.report_bytes", lambda a, r: len(r)),),
            span=True,
        )
        cli.json = serializer

        built = (("orders.profiles_built", lambda a, r: len(r)),)
        self.hook(orders, "all_profiles", amounts=built)
        self.hook(swf, "all_profiles", amounts=built)
        self.hook(swf, "enumerate_iia_swfs", calls="swf.enumerate_calls", seconds="swf.enumerate_s", span=True)
        self.hook(swf, "classify", calls="swf.classify_calls", seconds="swf.classify_s")
        self.hook(swf, "range_of", seconds="swf.range_of_s")
        self.hook(swf, "evaluate", calls="swf.evaluate_calls")

        solve = dict(
            calls="satkit.solve_calls",
            seconds="satkit.solve_s",
            amounts=(("satkit.solve_clauses", lambda a, r: len(a[0].clauses)),),
            span=True,
        )
        self.hook(satkit, "solve", **solve)
        self.hook(ranksets, "solve", **solve)
        self.hook(satkit, "encode_arrow", seconds="satkit.encode_s", span=True)
        self.hook(
            satkit,
            "enumerate_models",
            seconds="satkit.allsat_s",
            amounts=(("satkit.models", lambda a, r: len(r.models)),),
            nested=("satkit.solve_calls", "satkit.allsat_solves"),
            span=True,
        )
        self.hook(satkit, "decode_model", seconds="satkit.decode_s")

        self.hook(
            ranksets,
            "encode_ranksets",
            calls="ranksets.encode_calls",
            seconds="ranksets.encode_s",
            amounts=(("ranksets.clauses", lambda a, r: len(r.clauses)),),
            span=True,
        )
        self.hook(ranksets, "ground_axiom", seconds="ranksets.ground_s")
        self.hook(ranksets, "decode_ranksets", seconds="ranksets.decode_s")

        cells = (("auctions.cells", lambda a, r: r.cells if hasattr(r, "cells") else len(r)),)
        for sweep in ("check_weak_dominance", "check_abstract_dominance", "sweep_soundness"):
            self.hook(auctions, sweep, seconds="auctions.sweep_s", amounts=cells, span=True)
        self.hook(auctions, "to_amounts", calls="auctions.amount_conversions")
        # The CLI looks rules up in RULES; the sweeps call whatever it hands them.
        for key, rule in list(auctions.RULES.items()):
            auctions.RULES[key] = self.wrap(
                rule, f"auctions.RULES[{key}]", calls="auctions.rule_calls", seconds="auctions.rule_s"
            )

    def per_round(self, rounds: int) -> dict[str, float]:
        """Each metric divided by the number of rounds; all rounds do the same work."""
        out = {}
        for name, unit, _ in PER_LAYER:
            total = self.totals[name]
            if name == "satkit.models_per_solve":
                solves = self.totals["satkit.allsat_solves"]
                out[name] = self.totals["satkit.models"] / solves if solves else 0.0
            elif unit == "s":
                out[name] = total / rounds
            else:
                out[name] = total // rounds if total % rounds == 0 else total / rounds
        return out
