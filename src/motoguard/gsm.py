"""Text-mode (AT+CMGF=1) SMS client over a byte channel, plus a fake modem.

The client never sleeps; timeouts come from the channel, and the fake modem
charges them to the shared virtual clock. That keeps failure-path tests fast
and byte-for-byte reproducible.
"""

from __future__ import annotations

from enum import Enum

from .core import PHONE_PATTERN, SMS_MAX_CHARS, ContractViolation, VirtualClock

INIT_SEQUENCE = ("AT", "ATE0", "AT+CMGF=1")
CTRL_Z = b"\x1a"
DEFAULT_TIMEOUT_MS = 1000
INIT_RETRIES = 2  # per init command, on timeout only


class ModemError(Exception):
    """Base for every modem and channel failure."""


class ChannelTimeout(ModemError):
    """Raised by a channel when the pattern never arrived in time."""


class ChannelClosed(ModemError):
    pass


class CommandTimeout(ModemError):
    def __init__(self, command: str):
        self.command = command
        super().__init__(f"no final response to {command!r}")


class ErrorResponse(ModemError):
    def __init__(self, command: str):
        self.command = command
        super().__init__(f"ERROR response to {command!r}")


class PromptTimeout(ModemError):
    def __init__(self):
        super().__init__("no '> ' prompt after AT+CMGS")


class SendRejected(ModemError):
    def __init__(self, reason: str = "modem rejected message body"):
        super().__init__(reason)


class InvalidNumber(ModemError):
    def __init__(self, number: str):
        self.number = number
        super().__init__(f"invalid destination number: {number!r}")


class ModemPhase(Enum):
    UNINITIALIZED = "uninitialized"
    READY = "ready"
    FAILED = "failed"


class FakeModem:
    """Scriptable modem endpoint implementing the byte-channel interface.

    Scripting uses normalized command names: "AT", "ATE0", "AT+CMGF=1",
    "AT+CMGS" (the send header) and "SEND" (the message body frame).
    Names in ``silent_commands`` get no reply; names in ``fail_commands``
    get ERROR. Everything else follows the happy path.
    """

    def __init__(self, clock: VirtualClock | None = None, *,
                 silent_commands: set[str] | None = None,
                 fail_commands: set[str] | None = None,
                 ref_start: int = 1):
        self.clock = clock if clock is not None else VirtualClock()
        self.silent_commands = set(silent_commands or ())
        self.fail_commands = set(fail_commands or ())
        self.transcript: list[bytes] = []
        self._buffer = bytearray()
        self._closed = False
        self._next_ref = ref_start

    def close(self) -> None:
        self._closed = True

    def inject(self, data: bytes) -> None:
        """Queue bytes for the client to read: a reply, or unsolicited bytes."""
        self._buffer.extend(data)

    def write(self, data: bytes) -> None:
        if self._closed:
            raise ChannelClosed("channel closed")
        frame = bytes(data)
        self.transcript.append(frame)
        self._respond(frame)

    def read_until(self, pattern: bytes, timeout_ms: int) -> bytes:
        if self._closed:
            raise ChannelClosed("channel closed")
        idx = self._buffer.find(pattern)
        if idx == -1:
            self.clock.advance(timeout_ms)
            raise ChannelTimeout(f"pattern {pattern!r} not received")
        end = idx + len(pattern)
        out = bytes(self._buffer[:end])
        del self._buffer[:end]
        return out

    def _respond(self, frame: bytes) -> None:
        name = self._normalize(frame)
        if name is None or name in self.silent_commands:
            return
        if name in self.fail_commands:
            self.inject(b"\r\nERROR\r\n")
            return
        if name == "SEND":
            self.inject(f"\r\n+CMGS: {self._next_ref}\r\nOK\r\n".encode("ascii"))
            self._next_ref += 1
        elif name == "AT+CMGS":
            self.inject(b"\r\n> ")
        elif name in INIT_SEQUENCE:
            self.inject(b"\r\nOK\r\n")
        else:
            self.inject(b"\r\nERROR\r\n")

    @staticmethod
    def _normalize(frame: bytes) -> str | None:
        if frame.endswith(CTRL_Z):
            return "SEND"
        if not frame.endswith(b"\r"):
            return None
        if frame.startswith(b"AT+CMGS="):
            return "AT+CMGS"
        return frame[:-1].decode("ascii", errors="replace")


class ModemClient:
    """Drives the AT init sequence and single-part text-mode sends."""

    def __init__(self, channel):
        self.channel = channel
        self.phase = ModemPhase.UNINITIALIZED
        self.last_error: str | None = None

    def modem_init(self) -> None:
        """Run AT / ATE0 / AT+CMGF=1, retrying each on timeout."""
        try:
            for cmd in INIT_SEQUENCE:
                self._command_with_retries(cmd)
        except ModemError as exc:
            self._fail(exc)
            raise
        self.phase = ModemPhase.READY
        self.last_error = None

    def send_sms(self, to: str, body: str) -> int:
        """Send one message, returning the modem's message reference."""
        if self.phase is not ModemPhase.READY:
            raise ContractViolation(f"send_sms requires READY, modem is {self.phase.value}")
        if PHONE_PATTERN.fullmatch(to) is None:
            raise InvalidNumber(to)  # rejected before any bytes hit the channel
        if len(body) > SMS_MAX_CHARS:
            raise ContractViolation(f"body exceeds {SMS_MAX_CHARS} characters")
        if not body.isascii():
            raise ContractViolation("body must be ASCII")
        try:
            self.channel.write(f'AT+CMGS="{to}"\r'.encode("ascii"))
            try:
                self.channel.read_until(b"> ", DEFAULT_TIMEOUT_MS)
            except ChannelTimeout:
                raise PromptTimeout() from None
            self.channel.write(body.encode("ascii") + CTRL_Z)
            if (lines := self._await_final("AT+CMGS")) is None:
                raise SendRejected()
            ref = self._extract_ref(lines)
        except ModemError as exc:
            self._fail(exc)
            raise
        return ref

    # --- internals ---------------------------------------------------------

    def _command_with_retries(self, cmd: str) -> None:
        for attempt in range(INIT_RETRIES + 1):
            self.channel.write(cmd.encode("ascii") + b"\r")
            try:
                if self._await_final(cmd) is None:
                    raise ErrorResponse(cmd)
                return
            except CommandTimeout:  # timeouts are retried; ERROR is definitive
                if attempt == INIT_RETRIES:
                    raise

    def _await_final(self, cmd: str) -> list[str] | None:
        """The lines before a final OK, or None for a final ERROR."""
        lines: list[str] = []
        while True:
            try:
                chunk = self.channel.read_until(b"\r\n", DEFAULT_TIMEOUT_MS)
            except ChannelTimeout:
                raise CommandTimeout(cmd) from None
            text = chunk.decode("ascii", errors="replace").strip()
            if text == "OK":
                return lines
            if text == "ERROR":
                return None
            if text:
                lines.append(text)

    @staticmethod
    def _extract_ref(lines: list[str]) -> int:
        for line in lines:
            if line.startswith("+CMGS:"):
                try:
                    return int(line.partition(":")[2].strip())
                except ValueError:
                    raise SendRejected(f"unreadable message reference: {line!r}") from None
        raise SendRejected("final OK without +CMGS reference")

    def _fail(self, exc: ModemError) -> None:
        self.phase = ModemPhase.FAILED
        self.last_error = str(exc)
        self._drain()

    def _drain(self) -> None:
        # leave the channel at a CR/LF boundary so a later re-init can work
        for _ in range(32):
            try:
                self.channel.read_until(b"\r\n", DEFAULT_TIMEOUT_MS)
            except (ChannelTimeout, ChannelClosed):
                return
