"""In-memory span tracer and the traced replay used by ``run.py --trace 1``.

Tracing is applied from outside the program: for the length of the traced
passes, public functions of the motoguard modules are swapped for thin
timing wrappers and put back afterwards. Nothing under src/ carries tracing.
The replay layers are traced by ``Tracer.replay``, which repeats the
``harness.run`` sequence step by step so that config, modem init, ``step``
and ``drain_sms`` are separate spans; the benchmark checks that its log is
byte-identical to ``harness.run``'s.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

from motoguard import cli, controller, core, gsm, harness, nmea


class Tracer:
    """Spans (name, parent, start, end) kept in flat arrays until cleared."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, *, error_count: str | None = None,
             size_count: str | None = None):
        """Return ``fn`` wrapped in a span; optionally count raises or len(result)."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if error_count is not None:
                    counts[error_count] += 1
                raise
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if size_count is not None:
                counts[size_count] += len(result)
            return result

        return traced

    def clear(self) -> None:
        """Drop every span and count, keeping the wrappers already handed out."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.counts.clear()

    def summarize(self) -> tuple[Counter, Counter]:
        """Per-name call counts and self time (ns) over the spans held."""
        start, end, parent = self.start, self.end, self.parent
        child = [0] * len(start)
        for i in range(len(start)):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(len(start)):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_ns[name] += end[i] - start[i] - child[i]
        return calls, self_ns

    def durations_ns(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        return [self.end[i] - self.start[i] for i in range(len(self.start))
                if self.name_id[i] == nid]

    def write(self, path) -> None:
        """Dump every span as tab-separated name, parent index, start and end (ns)."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]}\t{self.end[i]}\n")

    def replay(self):
        """A traced copy of ``harness.run``: same calls in the same order."""
        apply_overrides = self.wrap("core.config", core.apply_overrides)
        require_valid_config = self.wrap("core.config", core.require_valid_config)
        step = self.wrap("controller.step", controller.step)
        drain_sms = self.wrap("controller.drain_sms", controller.drain_sms)
        counts = self.counts
        Mode, ModeChange = controller.Mode, harness.ModeChange

        def run(sc, cfg=core.DEFAULT_CONFIG):
            merged = require_valid_config(apply_overrides(cfg, sc.config))
            clock = core.VirtualClock()
            modem = gsm.FakeModem(clock)
            client = gsm.ModemClient(modem)
            client.modem_init()
            state = controller.ControllerState()
            log = harness.EventLog([ModeChange(0, Mode.PARKED)])
            index = 0
            events = sc.events
            while index < len(events):
                t_ms = events[index].t_ms
                group = []
                while index < len(events) and events[index].t_ms == t_ms:
                    group.append(events[index])
                    index += 1
                clock.advance_to(t_ms)
                before = state.mode
                try:
                    state, alerts, commands = step(merged, state, t_ms, group)
                except core.ContractViolation as exc:
                    raise core.ContractViolation(f"{sc.name}: at t={t_ms}: {exc}") from exc
                log.records.extend(alerts)
                log.records.extend(commands)
                for alert in alerts:
                    counts[f"detectors.alerts.{alert.kind.value}"] += 1
                counts["controller.route.alerts"] += len(alerts)
                counts["controller.route.sms_enqueued"] += sum(
                    1 for c in commands if isinstance(c.action, core.SmsSend))
                if state.mode is not before:
                    log.records.append(ModeChange(t_ms, state.mode))
                    counts["controller.mode_changes"] += 1
                state.router, sent, _ = drain_sms(state.router, client)
                if sent:
                    counts["controller.drain_sms.useful"] += 1
            counts["controller.router.dropped"] += state.router.dropped_count
            counts["gsm.bytes_written"] += sum(len(frame) for frame in modem.transcript)
            return log

        return self.wrap("harness.run", run)

    @contextmanager
    def installed(self):
        """Swap the traced public functions in for the duration of the block."""
        replay = self.replay()
        log_to_jsonl = self.wrap("harness.log_to_jsonl", harness.log_to_jsonl,
                                 size_count="harness.log_to_jsonl.bytes")
        swaps = [
            (cli, "main", self.wrap("cli.main", cli.main)),
            (cli, "run", replay),
            (harness, "run", replay),
            (harness, "loads_scenario", self.wrap("harness.loads_scenario",
                                                  harness.loads_scenario)),
            (harness, "event_from_record", self.wrap("core.event_from_record",
                                                     harness.event_from_record)),
            (cli, "log_to_jsonl", log_to_jsonl),
            (harness, "log_to_jsonl", log_to_jsonl),
            (harness, "match_alerts", self.wrap("harness.match_alerts", harness.match_alerts)),
            (cli, "evaluate_scenarios", self.wrap("harness.evaluate_scenarios",
                                                  cli.evaluate_scenarios)),
            (cli, "render_report", self.wrap("harness.render_report", cli.render_report)),
            (cli, "report_json", self.wrap("harness.report_json", cli.report_json)),
            (nmea, "parse_rmc", self.wrap("nmea.parse_rmc", nmea.parse_rmc,
                                          error_count="nmea.parse_rmc.rejected")),
            (nmea, "to_gps_fix", self.wrap("nmea.to_gps_fix", nmea.to_gps_fix)),
            (gsm.ModemClient, "modem_init", self.wrap("gsm.modem_init",
                                                      gsm.ModemClient.modem_init)),
            (gsm.ModemClient, "send_sms", self.wrap("gsm.send_sms", gsm.ModemClient.send_sms,
                                                    error_count="gsm.send_sms.failed")),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in swaps]
        try:
            for owner, attr, fn in swaps:
                setattr(owner, attr, fn)
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
