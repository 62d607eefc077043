"""Text-mode (AT+CMGF=1) SMS client over a byte channel, plus a fake modem.

The client never waits. A channel has ``write(data)``, a ``read_available()``
that returns whatever bytes have arrived, and a ``clock``, read only while a
reply is due. A reply that has not arrived leaves its exchange in flight
with a deadline, which starts at the poll that first finds it missing; a
later call polls it on, and one made at or past the deadline retries the
command or fails the exchange. The client never moves the clock, so the
loop that owns it decides how much time passes between polls, and
failure-path tests stay fast and byte-for-byte reproducible.
"""

from __future__ import annotations

import re
from enum import Enum

from .core import PHONE_PATTERN, SMS_MAX_CHARS, ContractViolation, VirtualClock, check_sms_body

INIT_SEQUENCE = ("AT", "ATE0", "AT+CMGF=1")
CTRL_Z = b"\x1a"
DEFAULT_TIMEOUT_MS = 1000  # from a command to the deadline of its reply
INIT_RETRIES = 2  # per init command, on timeout only

# The compliant reply to an init command, to a send header and to a message
# body, and the final ERROR, which the fake modem also answers with. A message
# reference is 1 to 640 ASCII digits, both here and in the walk: int() reads
# that many on every interpreter, whatever its int_max_str_digits limit
# (sys.int_info.str_digits_check_threshold).
_OK = b"\r\nOK\r\n"
_PROMPT = b"\r\n> "
_ERROR = b"\r\nERROR\r\n"
_REF = "[0-9]{1,640}"
_SENT = re.compile(rb"\r\n\+CMGS: (%b)\r\nOK\r\n" % _REF.encode("ascii"))
# the fake modem's reply to each command it knows, by normalized name; the
# one to a message body gets the message's reference
_SENT_REPLY = b"\r\n+CMGS: %d\r\nOK\r\n"
_REPLIES = {**dict.fromkeys(INIT_SEQUENCE, _OK), "AT+CMGS": _PROMPT, "SEND": _SENT_REPLY}
_INIT_FRAMES = tuple(cmd.encode("ascii") + b"\r" for cmd in INIT_SEQUENCE)
# an exchange's steps, by the reply each awaits: one per init command, then
# the prompt after a send header and the reference after its body; each
# step's command as its errors name it
_COMMANDS = (*INIT_SEQUENCE, "AT+CMGS", "AT+CMGS")
_PROMPT_STEP, _REF_STEP = len(INIT_SEQUENCE), len(INIT_SEQUENCE) + 1


class ModemError(Exception):
    """Base for every modem and channel failure."""


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
    UNINITIALIZED = "uninitialized"  # never brought up, or an init is in flight
    READY = "ready"
    FAILED = "failed"


class FakeModem:
    """Scriptable modem endpoint implementing the byte-channel interface.

    Scripting uses normalized command names: "AT", "ATE0", "AT+CMGF=1",
    "AT+CMGS" (the send header) and "SEND" (the message body frame).
    Names in ``silent_commands`` get no reply; names in ``fail_commands``
    get ERROR. Everything else follows the happy path. A reply is ready to
    read as soon as the frame that asks for it is written.
    """

    def __init__(self, clock: VirtualClock | None = None, *,
                 silent_commands: set[str] | None = None,
                 fail_commands: set[str] | None = None):
        self.clock = clock if clock is not None else VirtualClock()
        self.silent_commands = set(silent_commands or ())
        self.fail_commands = set(fail_commands or ())
        self.transcript: list[bytes] = []
        self._buffer = b""
        self._closed = False
        self._next_ref = 1

    def close(self) -> None:
        self._closed = True

    def inject(self, data: bytes) -> None:
        """Queue bytes for the client to read: a reply, or unsolicited bytes."""
        self._buffer += data

    def write(self, data: bytes) -> None:
        if self._closed:
            raise ChannelClosed("channel closed")
        frame = bytes(data)
        self.transcript.append(frame)
        self._respond(frame)

    def read_available(self) -> bytes:
        """Every byte that has arrived and not been read yet; never waits."""
        if self._closed:
            raise ChannelClosed("channel closed")
        out, self._buffer = self._buffer, b""
        return out

    def _respond(self, frame: bytes) -> None:
        name = self._normalize(frame)
        if name is None or name in self.silent_commands:
            return
        reply = _ERROR if name in self.fail_commands else _REPLIES.get(name, _ERROR)
        if reply is _SENT_REPLY:  # each message sent takes the next reference
            reply %= self._next_ref
            self._next_ref += 1
        self.inject(reply)

    @staticmethod
    def _normalize(frame: bytes) -> str | None:
        if frame.endswith(CTRL_Z):
            return "SEND"
        if not frame.endswith(b"\r"):
            return None
        if frame.startswith(b"AT+CMGS="):
            return "AT+CMGS"
        return frame[:-1].decode("ascii", errors="replace")


def _walk(step: int, rx: bytes) -> int | bool | None:
    """Read a reply the compliant shape refused, line by line: None while it
    is still incomplete, else what the step gives (True, or a send's message
    reference). Unsolicited lines are skipped; a final ERROR or a bad
    reference raises the ModemError that names it."""
    lines = [line.decode("ascii", errors="replace").strip() for line in rx.split(b"\r\n")[:-1]]
    if step == _PROMPT_STEP:
        if b"> " in rx:
            return True
        if "ERROR" in lines:
            raise ErrorResponse(_COMMANDS[step])
        return None
    for i, text in enumerate(lines):
        if text == "ERROR":
            raise SendRejected() if step == _REF_STEP else ErrorResponse(_COMMANDS[step])
        if text == "OK":
            return _reference(lines[:i]) if step == _REF_STEP else True
    return None


def _reference(lines: list[str]) -> int:
    for line in lines:
        if line.startswith("+CMGS:"):
            if re.fullmatch(_REF, digits := line[6:].strip()) is None:
                raise SendRejected(f"unreadable message reference: {line!r}")
            return int(digits)
    raise SendRejected("final OK without +CMGS reference")


class ModemClient:
    """Drives the AT init sequence and single-part text-mode sends.

    Each call returns at once. Where a reply has not arrived yet, the call
    leaves its exchange in flight and returns False (init) or None (send);
    calling again polls the same exchange on. Every reply is read once, as
    bytes: a compliant one is recognised whole, and only what that refuses
    is walked line by line. The clock is read only while a reply is due.
    """

    def __init__(self, channel):
        self.channel = channel
        self.phase = ModemPhase.UNINITIALIZED
        self.last_error: str | None = None
        # the exchange in flight: the step whose reply it awaits (None when
        # idle), that reply's bytes so far, its deadline (None until a poll
        # finds the reply due), the writes of the step's command still
        # allowed, and the message of a send
        self._step: int | None = None
        self._rx = b""
        self._due_ms: int | None = None
        self._tries = 0
        self._msg: tuple[str, str] | None = None

    def modem_init(self) -> bool:
        """Run AT / ATE0 / AT+CMGF=1, retrying each command whose reply
        misses its deadline. True once READY, False while a reply is due;
        raises the ModemError that failed it."""
        if (idle := self._step is None):
            self.phase = ModemPhase.UNINITIALIZED
            self._step, self._rx, self._tries = 0, b"", INIT_RETRIES
        elif self._step >= _PROMPT_STEP:
            raise ContractViolation("modem_init while a send is in flight")
        return self._poll(write=idle) is not None

    def send_sms(self, to: str, body: str) -> int | None:
        """Send one message: the modem's message reference, or None while a
        reply is due, when a later call with the same message polls it on."""
        if self.phase is not ModemPhase.READY:
            raise ContractViolation(f"send_sms requires READY, modem is {self.phase.value}")
        if self._step is not None:
            if (to, body) == self._msg:
                return self._poll()
            # the queue gave up the message in flight (overflow): so does the client
            self._fail(exc := SendRejected("message withdrawn while in flight"))
            raise exc
        if PHONE_PATTERN.fullmatch(to) is None:
            raise InvalidNumber(to)  # rejected before any bytes hit the channel
        if len(body) > SMS_MAX_CHARS:
            raise ContractViolation(f"body exceeds {SMS_MAX_CHARS} characters")
        check_sms_body(body)
        channel = self.channel
        try:
            channel.write(f'AT+CMGS="{to}"\r'.encode("ascii"))
            if (rx := channel.read_available()) != _PROMPT:
                step = _PROMPT_STEP
            else:
                channel.write(body.encode("ascii") + CTRL_Z)
                if (sent := _SENT.fullmatch(rx := channel.read_available())) is not None:
                    return int(sent[1])
                step = _REF_STEP
        except ModemError as exc:
            self._fail(exc)
            raise
        self._msg = (to, body)
        self._step, self._rx, self._tries, self._due_ms = step, rx, 0, None
        return self._poll()

    # --- internals ---------------------------------------------------------

    def _poll(self, write: bool = False) -> int | bool | None:
        """Move the exchange in flight on as far as the bytes that have
        arrived allow, writing its step's frame first if write: its result
        once it ends, None while a reply is due. The one place that writes
        a frame of an exchange in flight, and that reads the clock."""
        channel = self.channel
        try:
            while True:
                step = self._step
                if write:
                    channel.write(_INIT_FRAMES[step] if step < _PROMPT_STEP
                                  else self._msg[1].encode("ascii") + CTRL_Z)
                    self._due_ms = None
                rx = self._rx = self._rx + channel.read_available()
                result = True if step < _PROMPT_STEP and rx == _OK else _walk(step, rx)
                if result is None:
                    now = channel.clock.now_ms()
                    if self._due_ms is None:  # the first poll to find the reply due
                        self._due_ms = now + DEFAULT_TIMEOUT_MS
                    if now < self._due_ms:
                        return None
                    if not self._tries:
                        raise PromptTimeout() if step == _PROMPT_STEP else \
                            CommandTimeout(_COMMANDS[step])
                    self._tries -= 1  # only an init command is written again
                elif step in (_PROMPT_STEP - 1, _REF_STEP):  # the last of init or of a send
                    self._step = None
                    if step < _PROMPT_STEP:
                        self.phase, self.last_error = ModemPhase.READY, None
                    return result
                else:
                    self._step = step = step + 1
                    self._rx = b""
                    self._tries = INIT_RETRIES if step < _PROMPT_STEP else 0
                write = True
        except ModemError as exc:
            self._fail(exc)
            raise

    def _fail(self, exc: ModemError) -> None:
        # the exchange is over, and with it the bytes it buffered: the next
        # one starts from what its own first read returns
        self.phase = ModemPhase.FAILED
        self.last_error = str(exc)
        self._step = None
