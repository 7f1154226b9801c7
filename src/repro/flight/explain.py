"""Post-mortem explain engine: walk a flight dump's causal chains.

``repro explain <dump.json>`` loads a :class:`FlightRecorder` dump and
reconstructs the causal chain behind one question:

* ``--packet PID`` -- one packet's journey: STM commits, piggyback
  append/apply hops, buffer hold/release, channel repairs;
* ``--recovery POS`` -- one recovery of chain position POS: suspicion,
  corroboration, (under an ensemble) election + journal writes, state
  fetches, journal replay, and the fenced re-steer;
* ``--epoch E`` -- one leadership term: the election round that won
  epoch E, every command it journaled, and how it ended (step-down or
  fencing).

Reconstruction walks ``parent_ref`` links backwards from the terminal
event.  A ``parent_ref`` older than the oldest retained event means
the bounded ring shed that history; the walk reports the truncation
instead of silently pretending the chain starts there.

The recovery phases are the same events the RecoveryTimeline keeps:
:meth:`~repro.telemetry.Telemetry.emit` writes both at once, so a dump
needs no timeline of its own to be checked against (PROTOCOL.md §10.4).
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["load_dump", "walk_back", "explain_packet", "explain_recovery",
           "explain_epoch"]

_POSITIONS_RE = re.compile(r"positions=\[([0-9, ]*)\]")


def load_dump(path: str) -> Dict[str, Any]:
    """Load and minimally validate a flight dump file."""
    with open(path) as handle:
        dump = json.load(handle)
    if not isinstance(dump, dict) or "events" not in dump:
        raise ValueError(f"{path}: not a flight dump (no events)")
    return dump


def _index(dump: Dict[str, Any]) -> Dict[int, Dict[str, Any]]:
    return {event["ref"]: event for event in dump["events"]}


def _positions_of(event: Dict[str, Any]) -> List[int]:
    """Chain positions an event names in its detail (``positions=[...]``)."""
    match = _POSITIONS_RE.search(event.get("detail", ""))
    if not match:
        return []
    body = match.group(1).strip()
    return [int(item) for item in body.split(",")] if body else []


def walk_back(dump: Dict[str, Any],
              ref: int) -> Tuple[List[Dict[str, Any]], int]:
    """Follow ``parent_ref`` links from ``ref`` back to the chain root.

    Returns ``(events oldest-first, truncated_parent)`` where
    ``truncated_parent`` is the first parent ref that fell off the ring
    (-1 when the full chain was retained).
    """
    index = _index(dump)
    chain: List[Dict[str, Any]] = []
    truncated = -1
    seen = set()
    cursor: Optional[int] = ref
    while cursor is not None and cursor not in seen:
        seen.add(cursor)
        event = index.get(cursor)
        if event is None:
            truncated = cursor
            break
        chain.append(event)
        cursor = event.get("parent_ref")
    chain.reverse()
    return chain, truncated


def _format_event(event: Dict[str, Any], indent: str = "  ") -> str:
    t_ms = event["t"] * 1e3
    who = []
    if "pid" in event:
        who.append(f"pid={event['pid']}")
    if "epoch" in event:
        who.append(f"epoch={event['epoch']}")
    if "depvec" in event:
        vec = ",".join(f"{k}:{v}" for k, v in sorted(
            event["depvec"].items(), key=lambda kv: int(kv[0])))
        who.append(f"depvec={{{vec}}}")
    extra = f" [{' '.join(who)}]" if who else ""
    detail = f"  {event['detail']}" if event.get("detail") else ""
    return (f"{indent}#{event['ref']:<6d} {t_ms:10.3f}ms  "
            f"{event['component']}/{event['kind']}{extra}{detail}")


def _render_chain(title: str, chain: Sequence[Dict[str, Any]],
                  truncated: int, dump: Dict[str, Any]) -> List[str]:
    lines = [title]
    context = dump.get("context") or {}
    if context:
        ctx = " ".join(f"{key}={value}" for key, value in context.items())
        lines.append(f"  context: {ctx}")
    if truncated >= 0:
        lines.append(f"  ... causal chain truncated: parent #{truncated} "
                     f"was dropped from the ring "
                     f"({dump.get('dropped', 0)} events shed)")
    for event in chain:
        lines.append(_format_event(event))
    if not chain:
        lines.append("  (no events)")
    return lines


# -- --packet ----------------------------------------------------------------


def explain_packet(dump: Dict[str, Any], pid: int) -> str:
    """One packet's causal chain, walked back from its last event."""
    last = None
    for event in dump["events"]:
        if event.get("pid") == pid:
            last = event
    if last is None:
        return f"packet {pid}: no flight events (not sampled, or shed)"
    chain, truncated = walk_back(dump, last["ref"])
    # The pid chain may have been spliced onto another chain by an
    # explicit parent; keep the packet's own events plus any direct
    # causes that name no pid (e.g. a channel reset that delayed it).
    chain = [e for e in chain if e.get("pid") in (pid, None)]
    return "\n".join(_render_chain(f"packet {pid}: {len(chain)} events",
                                   chain, truncated, dump))


# -- --recovery ----------------------------------------------------------------


def _recovery_terminal(dump: Dict[str, Any],
                       position: int) -> Optional[Dict[str, Any]]:
    """The last committed/abandoned recovery event covering ``position``."""
    terminal = None
    for event in dump["events"]:
        if (event["component"] == "recovery"
                and event["kind"] in ("committed", "abandoned")
                and position in _positions_of(event)):
            terminal = event
    return terminal


def explain_recovery(dump: Dict[str, Any], position: int) -> str:
    """Reconstruct one recovery of chain position ``position``."""
    terminal = _recovery_terminal(dump, position)
    if terminal is None:
        return (f"recovery of p{position}: no committed or abandoned "
                f"recovery found in this dump")
    full, truncated = walk_back(dump, terminal["ref"])
    # Trim the control-plane chain to this recovery: start at the
    # earliest suspicion of the position still linked in the walk.
    start = 0
    for i, event in enumerate(full):
        if (event["kind"] == "suspected"
                and position in _positions_of(event)):
            start = i
            break
    chain = full[start:]
    status = terminal["kind"]
    return "\n".join(_render_chain(
        f"recovery of p{position}: {status} at "
        f"{terminal['t'] * 1e3:.3f}ms ({len(chain)} causal events)",
        chain, truncated if start == 0 else -1, dump))


# -- --epoch -------------------------------------------------------------------


def explain_epoch(dump: Dict[str, Any], epoch: int) -> str:
    """Reconstruct one leadership term: election, commands, demise."""
    marker = f"epoch {epoch}"
    events = [event for event in dump["events"]
              if event.get("epoch") == epoch
              or (event["component"] in ("election", "journal", "fencing",
                                         "orch")
                  and marker in event.get("detail", ""))]
    if not events:
        return f"epoch {epoch}: no flight events in this dump"
    won = next((e for e in events if e["kind"] == "elected"), None)
    ended = next((e for e in reversed(events)
                  if e["kind"] in ("stepped-down", "fenced")), None)
    title = f"epoch {epoch}: {len(events)} events"
    if won is not None:
        title += f"; won at {won['t'] * 1e3:.3f}ms"
    if ended is not None:
        title += (f"; ended by {ended['kind']} at "
                  f"{ended['t'] * 1e3:.3f}ms")
    return "\n".join(_render_chain(title, events, -1, dump))
