"""Fault injection: timed adverse events against the serving fleet.

A fault spec is a comma-separated list of events::

    chip-kill@t=0.5
    straggler@t=0.2:chip=1:factor=3:until=0.8
    cache-wipe@t=0.4:stall_ms=25
    chip-kill@t=0.5,chip-kill@t=0.7:chip=1

Grammar: ``kind@t=WHEN[:key=value]...``.  ``t`` is a fraction of the
trace's arrival span (0 = first arrival, 1 = last); ``t_ms`` pins an
absolute simulated time instead.  Supported kinds and options:

- ``chip-kill`` — the chip (and with it the whole replica group holding
  it) fails permanently at ``t``.  Options: ``chip`` (default 0).
- ``straggler`` — the chip's replica group degrades: service times are
  multiplied by ``factor`` (default 4.0) from ``t`` until ``until``
  (fraction; default: the rest of the run).  Options: ``chip``,
  ``factor``, ``until`` / ``until_ms``.
- ``cache-wipe`` — the compile/grid caches are wiped; every replica's
  next dispatch pays a recompile stall of ``stall_ms`` (default: 20x
  the deployment's fill latency, the engine derives it).

:func:`parse_faults` turns the spec into a :class:`FaultPlan`;
:meth:`FaultPlan.resolve` maps fractions onto a concrete trace span and
returns time-ordered :class:`ResolvedFault` events the engine replays
(see docs/scenarios.md for the failover semantics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FAULT_KINDS",
    "DEFAULT_STRAGGLER_FACTOR",
    "DEFAULT_WIPE_STALL_FACTOR",
    "FaultSpecError",
    "FaultEvent",
    "ResolvedFault",
    "FaultPlan",
    "parse_faults",
]

FAULT_KINDS = ("chip-kill", "straggler", "cache-wipe")

DEFAULT_STRAGGLER_FACTOR = 4.0

# A cache wipe stalls each replica's next dispatch for a recompile,
# priced as this multiple of the deployment's pipeline fill latency
# unless the fault spec pins an explicit ``stall_ms``.
DEFAULT_WIPE_STALL_FACTOR = 20.0

_GRAMMAR = "kind@t=FRAC[:chip=K][:factor=F][:until=FRAC][:stall_ms=MS]"


class FaultSpecError(ValueError):
    """A fault spec that cannot be parsed or validated."""


@dataclass(frozen=True)
class FaultEvent:
    """One declared fault, times still relative to the trace span.

    Exactly one of ``at`` (span fraction) / ``at_ms`` (absolute
    simulated ms) is set; same for ``until`` / ``until_ms`` on
    stragglers.
    """

    kind: str
    at: Optional[float] = None
    at_ms: Optional[float] = None
    chip: int = 0
    factor: float = DEFAULT_STRAGGLER_FACTOR
    until: Optional[float] = None
    until_ms: Optional[float] = None
    stall_ms: Optional[float] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; one of "
                f"{', '.join(FAULT_KINDS)}")
        if (self.at is None) == (self.at_ms is None):
            raise FaultSpecError(
                f"{self.kind}: exactly one of t / t_ms must be given")
        if self.at is not None and self.at < 0:
            raise FaultSpecError(f"{self.kind}: t must be >= 0")
        if self.at_ms is not None and self.at_ms < 0:
            raise FaultSpecError(f"{self.kind}: t_ms must be >= 0")
        if self.chip < 0:
            raise FaultSpecError(f"{self.kind}: chip must be >= 0")
        if self.factor <= 1.0 and self.kind == "straggler":
            raise FaultSpecError(
                "straggler: factor must be > 1 (a factor <= 1 is not "
                "a degradation)")
        if self.until is not None and self.until_ms is not None:
            raise FaultSpecError(
                "straggler: until and until_ms are exclusive")
        # An until that cannot come after t is rejected at declaration
        # time when both share a base; mixed bases (until_ms against a
        # fractional t) are only comparable after resolve() pins them.
        if self.until is not None and self.at is not None \
                and self.until <= self.at:
            raise FaultSpecError(
                f"straggler: until ({self.until:g}) must come after "
                f"t ({self.at:g})")
        if self.until_ms is not None and self.at_ms is not None \
                and self.until_ms <= self.at_ms:
            raise FaultSpecError(
                f"straggler: until_ms ({self.until_ms:g}) must come "
                f"after t_ms ({self.at_ms:g})")
        if self.stall_ms is not None and self.stall_ms <= 0:
            raise FaultSpecError("cache-wipe: stall_ms must be > 0")

    def window(self) -> Optional[Tuple[str, float, float]]:
        """The straggler's ``(base, start, end)`` degradation window when
        start and end live on the same base (``"frac"`` fractions or
        ``"ms"`` absolute); None for non-stragglers and mixed-base events
        (those are only comparable once :meth:`FaultPlan.resolve` pins
        them).  An open-ended window runs to +inf."""
        if self.kind != "straggler":
            return None
        if self.at is not None and self.until_ms is None:
            return ("frac", self.at,
                    self.until if self.until is not None else float("inf"))
        if self.at_ms is not None and self.until is None:
            return ("ms", self.at_ms, self.until_ms
                    if self.until_ms is not None else float("inf"))
        return None

    def describe(self) -> str:
        when = (f"t={self.at:g}" if self.at is not None
                else f"t_ms={self.at_ms:g}")
        extra = ""
        if self.kind == "chip-kill":
            extra = f" chip={self.chip}"
        elif self.kind == "straggler":
            ends = (f" until={self.until:g}" if self.until is not None
                    else (f" until_ms={self.until_ms:g}"
                          if self.until_ms is not None else ""))
            extra = f" chip={self.chip} factor={self.factor:g}{ends}"
        elif self.stall_ms is not None:
            extra = f" stall_ms={self.stall_ms:g}"
        return f"{self.kind}@{when}{extra}"


@dataclass(frozen=True)
class ResolvedFault:
    """A fault pinned to absolute simulated milliseconds."""

    kind: str
    at_ms: float
    chip: int
    factor: float
    until_ms: Optional[float]
    stall_ms: Optional[float]

    def wipe_stall_ms(self, fill_ms: float) -> float:
        """A cache wipe's recompile stall: the pinned ``stall_ms``, else
        DEFAULT_WIPE_STALL_FACTOR x the deployment's fill latency."""
        return (self.stall_ms if self.stall_ms is not None
                else DEFAULT_WIPE_STALL_FACTOR * fill_ms)

    def event(self, replica: Optional[int] = None, *, touched: int = 0,
              stall_ms: float = 0.0, survivors: bool = False,
              requeued_ids: Sequence[int] = (), lost: int = 0) -> Dict:
        """This fault's telemetry record once applied, for both replay
        engines.  ``replica`` is the group hit (None: a no-op on an
        unowned or dead chip); a cache wipe reports the ``touched``
        replica count and ``stall_ms``, a chip kill its failover."""
        if self.kind == "cache-wipe":
            return {"kind": self.kind, "at_ms": self.at_ms,
                    "stall_ms": stall_ms, "label": self.kind,
                    "outcome": f"{touched} replica(s) stalled "
                               f"{stall_ms:g} ms"}
        event = {"kind": self.kind, "at_ms": self.at_ms, "chip": self.chip}
        if self.kind == "straggler":
            event.update(until_ms=self.until_ms, factor=self.factor,
                         label=f"straggler chip={self.chip} "
                               f"x{self.factor:g}")
            if replica is None:
                event["outcome"] = "no-op (chip unowned or dead)"
            else:
                event.update(replica=replica,
                             outcome=f"replica{replica} degraded "
                                     f"{self.factor:g}x")
            return event
        event["label"] = f"chip-kill chip={self.chip}"
        if replica is None:
            event.update(outcome="no-op (chip unowned or already dead)",
                         failover=False, requeued=0, lost=0,
                         retried_ids=())
            return event
        outcome = (f"{len(requeued_ids)} retried, {lost} lost" if survivors
                   else "fleet offline")
        event.update(outcome=f"replica{replica} down; {outcome}",
                     replica=replica, failover=survivors,
                     requeued=len(requeued_ids), lost=lost,
                     retried_ids=tuple(requeued_ids))
        return event


class FaultPlan:
    """An ordered set of declared faults, replayable onto any trace."""

    def __init__(self, events: Sequence[FaultEvent] = ()):
        self.events: Tuple[FaultEvent, ...] = tuple(events)
        # Overlapping straggler windows on one chip would silently
        # clobber each other's factor/until in the engine; reject them
        # here for same-base declarations (mixed fraction/ms pairs are
        # re-checked in resolve() once pinned to a trace span).
        by_chip: Dict[Tuple[int, str], List[Tuple[float, float,
                                                  FaultEvent]]] = {}
        for event in self.events:
            win = event.window()
            if win is not None:
                base, start, end = win
                by_chip.setdefault((event.chip, base), []).append(
                    (start, end, event))
        for (chip, _), windows in by_chip.items():
            windows.sort(key=lambda w: w[0])
            for (s1, e1, ev1), (s2, e2, ev2) in zip(windows, windows[1:]):
                if s2 < e1:
                    raise FaultSpecError(
                        f"overlapping straggler windows on chip {chip}: "
                        f"{ev1.describe()!r} is still active when "
                        f"{ev2.describe()!r} fires — the second would "
                        "silently clobber the first; stagger the windows "
                        "or use different chips")

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        # An empty plan still engages the engine's fault-aware path —
        # truthiness reflects "was a plan supplied", not event count.
        return True

    def __eq__(self, other) -> bool:
        return (isinstance(other, FaultPlan)
                and self.events == other.events)

    def resolve(self, span_start_ms: float, span_end_ms: float
                ) -> List[ResolvedFault]:
        """Pin fractional times onto ``[span_start_ms, span_end_ms]``
        and return the events sorted by firing time.

        Fractions above 1 land past the last arrival — legal (the tail
        of the run is still simulated time), so a plan can model a
        fault during drain.
        """
        span = max(0.0, span_end_ms - span_start_ms)
        resolved = []
        for event in self.events:
            at_ms = (event.at_ms if event.at_ms is not None
                     else span_start_ms + event.at * span)
            until_ms = event.until_ms
            if event.until is not None:
                until_ms = span_start_ms + event.until * span
            if until_ms is not None and until_ms <= at_ms:
                raise FaultSpecError(
                    f"{event.kind}: until ({until_ms:g} ms) must come "
                    f"after t ({at_ms:g} ms)")
            resolved.append(ResolvedFault(
                kind=event.kind, at_ms=at_ms, chip=event.chip,
                factor=event.factor, until_ms=until_ms,
                stall_ms=event.stall_ms))
        ordered = sorted(resolved, key=lambda f: f.at_ms)
        # Same overlap rule as __init__, now that every window is pinned
        # to absolute ms — this is what catches mixed-base declarations
        # (and fraction windows a degenerate span collapses together).
        last_end: Dict[int, Tuple[float, ResolvedFault]] = {}
        for fault in ordered:
            if fault.kind != "straggler":
                continue
            prev = last_end.get(fault.chip)
            if prev is not None and fault.at_ms < prev[0]:
                raise FaultSpecError(
                    f"overlapping straggler windows on chip {fault.chip}: "
                    f"one is still active at {fault.at_ms:g} ms when the "
                    "next fires — the second would silently clobber the "
                    "first; stagger the windows or use different chips")
            end = (fault.until_ms if fault.until_ms is not None
                   else float("inf"))
            if prev is None or end > prev[0]:
                last_end[fault.chip] = (end, fault)
        return ordered

    def describe(self) -> str:
        if not self.events:
            return "(no faults)"
        return ", ".join(event.describe() for event in self.events)


_FLOAT_KEYS = ("t", "t_ms", "factor", "until", "until_ms", "stall_ms")
_ALLOWED_KEYS = {
    "chip-kill": {"t", "t_ms", "chip"},
    "straggler": {"t", "t_ms", "chip", "factor", "until", "until_ms"},
    "cache-wipe": {"t", "t_ms", "stall_ms"},
}


def _parse_options(kind: str, parts: List[str], where: str) -> Dict:
    options: Dict = {}
    for part in parts:
        if "=" not in part:
            raise FaultSpecError(
                f"{where}: option {part!r} is not key=value "
                f"(grammar: {_GRAMMAR})")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in _ALLOWED_KEYS[kind]:
            raise FaultSpecError(
                f"{where}: {kind} does not take {key!r} (allowed: "
                f"{', '.join(sorted(_ALLOWED_KEYS[kind]))})")
        if key in options:
            raise FaultSpecError(f"{where}: duplicate option {key!r}")
        try:
            options[key] = (float(raw) if key in _FLOAT_KEYS
                            else int(raw))
        except ValueError:
            raise FaultSpecError(
                f"{where}: {key}={raw!r} is not a number") from None
    return options


def parse_faults(spec: str) -> FaultPlan:
    """Parse a fault spec string (see the module grammar) into a
    :class:`FaultPlan`; raises :class:`FaultSpecError` on any problem."""
    if not isinstance(spec, str) or not spec.strip():
        raise FaultSpecError(
            f"empty fault spec (grammar: {_GRAMMAR}, events separated "
            "by commas)")
    events = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise FaultSpecError("empty event in fault spec (stray comma?)")
        kind, sep, rest = chunk.partition("@")
        kind = kind.strip()
        if kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r}; one of "
                f"{', '.join(FAULT_KINDS)}")
        if not sep or not rest:
            raise FaultSpecError(
                f"{chunk!r}: missing @t=... firing time "
                f"(grammar: {_GRAMMAR})")
        options = _parse_options(kind, rest.split(":"), chunk)
        if "t" not in options and "t_ms" not in options:
            raise FaultSpecError(
                f"{chunk!r}: an event needs t= or t_ms= "
                f"(grammar: {_GRAMMAR})")
        kwargs = {"kind": kind,
                  "at": options.get("t"),
                  "at_ms": options.get("t_ms")}
        if "chip" in options:
            kwargs["chip"] = options["chip"]
        if "factor" in options:
            kwargs["factor"] = options["factor"]
        if "until" in options:
            kwargs["until"] = options["until"]
        if "until_ms" in options:
            kwargs["until_ms"] = options["until_ms"]
        if "stall_ms" in options:
            kwargs["stall_ms"] = options["stall_ms"]
        events.append(FaultEvent(**kwargs))
    return FaultPlan(events)
