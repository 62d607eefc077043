from __future__ import annotations

import pytest

from motoguard import gsm
from motoguard.core import ContractViolation, VirtualClock
from motoguard.gsm import (DEFAULT_TIMEOUT_MS, INIT_RETRIES, ChannelClosed, CommandTimeout,
                           ErrorResponse, FakeModem, InvalidNumber, ModemClient, ModemPhase,
                           PromptTimeout, SendRejected)

OWNER = "+639171234567"


def fresh() -> tuple[VirtualClock, FakeModem, ModemClient]:
    clock = VirtualClock()
    modem = FakeModem(clock)
    return clock, modem, ModemClient(modem)


def settle(clock: VirtualClock, call):
    """call's result once its exchange ends, calling again at each deadline
    the test's clock reaches; the client itself never moves the clock."""
    for _ in range(INIT_RETRIES + 2):
        if (result := call()) is not None and result is not False:
            return result
        clock.advance(DEFAULT_TIMEOUT_MS)
    raise AssertionError("the exchange never ended")


class FlakyModem(FakeModem):
    """Swallows the first ``drop_first`` AT probes, then behaves."""

    def __init__(self, clock: VirtualClock, drop_first: int):
        super().__init__(clock)
        self._drops = drop_first

    def _respond(self, frame: bytes) -> None:
        if self._normalize(frame) == "AT" and self._drops > 0:
            self._drops -= 1
            return
        super()._respond(frame)


class NoRefModem(FakeModem):
    """Acknowledges the body with a bare OK, omitting the +CMGS line."""

    def _respond(self, frame: bytes) -> None:
        if self._normalize(frame) == "SEND":
            self.inject(b"\r\nOK\r\n")
            return
        super()._respond(frame)


def test_init_golden_transcript() -> None:
    _, modem, client = fresh()
    client.modem_init()
    assert client.phase is ModemPhase.READY
    assert modem.transcript == [b"AT\r", b"ATE0\r", b"AT+CMGF=1\r"]


def test_send_golden_transcript_and_refs() -> None:
    _, modem, client = fresh()
    client.modem_init()
    assert client.send_sms(OWNER, "hello") == 1
    assert modem.transcript == [b"AT\r", b"ATE0\r", b"AT+CMGF=1\r",
                                b'AT+CMGS="+639171234567"\r', b"hello\x1a"]
    assert {type(frame) for frame in modem.transcript} == {bytes}
    assert client.send_sms(OWNER, "again") == 2
    assert client.phase is ModemPhase.READY


def test_silent_modem_times_out_after_retries() -> None:
    clock = VirtualClock()
    modem = FakeModem(clock, silent_commands={"AT"})
    client = ModemClient(modem)
    assert client.modem_init() is False  # AT written; its reply is due at 1000 ms
    assert client.phase is ModemPhase.UNINITIALIZED
    with pytest.raises(ContractViolation):
        client.send_sms(OWNER, "hello")  # an init in flight is not READY
    clock.advance(DEFAULT_TIMEOUT_MS - 1)
    assert client.modem_init() is False
    assert modem.transcript == [b"AT\r"]  # no retry before the deadline
    clock.advance(1)
    assert client.modem_init() is False
    assert modem.transcript == [b"AT\r"] * 2
    clock.advance(DEFAULT_TIMEOUT_MS)
    assert client.modem_init() is False
    clock.advance(DEFAULT_TIMEOUT_MS)
    with pytest.raises(CommandTimeout) as err:
        client.modem_init()
    assert err.value.command == "AT"
    assert client.phase is ModemPhase.FAILED
    assert modem.transcript == [b"AT\r"] * 3  # first try plus two retries
    # three deadlines of the test's clock; the client moved it not at all
    assert clock.now_ms() == 3000


def test_two_dropped_probes_recover_three_do_not() -> None:
    clock = VirtualClock()
    client = ModemClient(FlakyModem(clock, drop_first=2))
    assert settle(clock, client.modem_init) is True
    assert client.phase is ModemPhase.READY
    assert clock.now_ms() == 2 * DEFAULT_TIMEOUT_MS  # the second retry was answered

    clock = VirtualClock()
    client = ModemClient(FlakyModem(clock, drop_first=3))
    with pytest.raises(CommandTimeout):
        settle(clock, client.modem_init)


def test_error_response_is_definitive() -> None:
    clock = VirtualClock()
    modem = FakeModem(clock, fail_commands={"ATE0"})
    client = ModemClient(modem)
    with pytest.raises(ErrorResponse) as err:
        client.modem_init()
    assert (type(err.value), str(err.value)) == (ErrorResponse, "ERROR response to 'ATE0'")
    assert err.value.command == "ATE0"
    assert client.phase is ModemPhase.FAILED
    assert modem.transcript == [b"AT\r", b"ATE0\r"]  # no retry on ERROR
    assert client.last_error == "ERROR response to 'ATE0'"


def test_prompt_timeout() -> None:
    clock = VirtualClock()
    modem = FakeModem(clock, silent_commands={"AT+CMGS"})
    client = ModemClient(modem)
    client.modem_init()
    assert client.send_sms(OWNER, "hello") is None
    assert client.phase is ModemPhase.READY  # a send in flight
    with pytest.raises(PromptTimeout):
        settle(clock, lambda: client.send_sms(OWNER, "hello"))
    assert client.phase is ModemPhase.FAILED
    assert clock.now_ms() == DEFAULT_TIMEOUT_MS


def test_body_rejected_by_modem() -> None:
    clock = VirtualClock()
    modem = FakeModem(clock, fail_commands={"SEND"})
    client = ModemClient(modem)
    client.modem_init()
    with pytest.raises(SendRejected) as err:
        client.send_sms(OWNER, "hello")
    assert (type(err.value), str(err.value)) == (SendRejected, "modem rejected message body")
    assert client.phase is ModemPhase.FAILED
    assert client.last_error == "modem rejected message body"


def test_a_written_bytearray_is_kept_as_bytes() -> None:
    _, modem, _ = fresh()
    frame = bytearray(b"AT\r")
    modem.write(frame)
    frame[:] = b"XX\r"
    assert modem.transcript == [b"AT\r"] and type(modem.transcript[0]) is bytes


@pytest.mark.parametrize("frame,name", [
    (b"hello\x1a", "SEND"),
    (b'AT+CMGS="+639171234567"\r', "AT+CMGS"),
    (b"AT+CMGS=\xff\r", "AT+CMGS"),
    (b"AT+CMGS\r", "AT+CMGS"),
    (b"AT\r", "AT"),
    (b"AT", None),
    (b"AT+CMGF=\xe91\r", "AT+CMGF=\ufffd1"),
])
def test_normalize_names_each_frame(frame: bytes, name: str | None) -> None:
    assert FakeModem._normalize(frame) == name


def test_final_ok_without_reference_is_rejected() -> None:
    clock = VirtualClock()
    client = ModemClient(NoRefModem(clock))
    client.modem_init()
    with pytest.raises(SendRejected):
        client.send_sms(OWNER, "hello")


@pytest.mark.parametrize("number", ["", "12345", "+12345", "0" * 16, "+63abc", "+63 917",
                                    "+639171234567\n"])
def test_invalid_number_rejected_before_any_io(number: str) -> None:
    _, modem, client = fresh()
    client.modem_init()
    frames_before = list(modem.transcript)
    with pytest.raises(InvalidNumber):
        client.send_sms(number, "hello")
    assert modem.transcript == frames_before
    assert client.phase is ModemPhase.READY  # validation failures are not channel faults


def test_send_requires_ready_phase() -> None:
    _, _, client = fresh()
    with pytest.raises(ContractViolation):
        client.send_sms(OWNER, "hello")


def test_body_limits() -> None:
    _, _, client = fresh()
    client.modem_init()
    assert client.send_sms(OWNER, "x" * 160) == 1
    with pytest.raises(ContractViolation):
        client.send_sms(OWNER, "x" * 161)
    with pytest.raises(ContractViolation):
        client.send_sms(OWNER, "caf\xe9")


@pytest.mark.parametrize("body", ['hi\x1aAT+CMGS="+639999999999"\rpwned', "\x1a",
                                  "cancel\x1b", "x" * 159 + "\x1b"])
def test_a_body_that_ends_or_cancels_the_send_is_refused_before_any_byte(body: str) -> None:
    # in text mode Ctrl-Z (0x1A) sends what came before it, and the modem
    # reads the rest as commands; ESC (0x1B) cancels the send
    _, modem, client = fresh()
    client.modem_init()
    before = list(modem.transcript)
    with pytest.raises(ContractViolation, match="Ctrl-Z"):
        client.send_sms(OWNER, body)
    assert modem.transcript == before
    assert client.phase is ModemPhase.READY
    assert client.send_sms(OWNER, "next") == 1  # the refused body took no reference


def test_closed_channel_fails_init() -> None:
    _, modem, client = fresh()
    modem.close()
    with pytest.raises(ChannelClosed):
        client.modem_init()
    assert client.phase is ModemPhase.FAILED


def test_unsolicited_noise_is_skipped() -> None:
    _, modem, client = fresh()
    modem.inject(b"\r\nRDY\r\n+CFUN: 1\r\n")
    client.modem_init()
    assert client.phase is ModemPhase.READY
    assert client.send_sms(OWNER, "hello") == 1


def test_reinit_recovers_a_failed_client() -> None:
    clock = VirtualClock()
    modem = FakeModem(clock, fail_commands={"ATE0"})
    client = ModemClient(modem)
    with pytest.raises(ErrorResponse):
        client.modem_init()
    modem.fail_commands.clear()
    client.modem_init()
    assert client.phase is ModemPhase.READY
    assert client.last_error is None
    assert client.send_sms(OWNER, "back") == 1


def test_transcripts_are_deterministic() -> None:
    def run() -> list[bytes]:
        _, modem, client = fresh()
        client.modem_init()
        client.send_sms(OWNER, "hello")
        client.send_sms("+447700900123", "second")
        return modem.transcript

    assert run() == run()


# --- the polled exchange ---------------------------------------------------

class CountingModem(FakeModem):
    """Counts the frames written and the reads made."""

    def __init__(self, clock: VirtualClock):
        super().__init__(clock)
        self.writes = self.reads = 0

    def write(self, data: bytes) -> None:
        self.writes += 1
        super().write(data)

    def read_available(self) -> bytes:
        self.reads += 1
        return super().read_available()


class ReplyModem(FakeModem):
    """Answers every message body with ``reply``."""

    def __init__(self, clock: VirtualClock, reply: bytes):
        super().__init__(clock)
        self.reply = reply

    def _respond(self, frame: bytes) -> None:
        if self._normalize(frame) == "SEND":
            self.inject(self.reply)
            return
        super()._respond(frame)


def test_a_compliant_exchange_reads_each_reply_once(monkeypatch) -> None:
    def walked(step: int, rx: bytes):
        raise AssertionError(f"the line walk ran on {rx!r}")

    monkeypatch.setattr(gsm, "_walk", walked)
    modem = CountingModem(VirtualClock())
    client = ModemClient(modem)
    assert client.modem_init() is True
    assert (modem.writes, modem.reads) == (3, 3)
    for ref in (1, 2, 3):
        modem.writes = modem.reads = 0
        assert client.send_sms(OWNER, "x" * 160) == ref
        assert (modem.writes, modem.reads) == (2, 2)


def test_a_reply_split_across_polls_is_read_before_its_deadline() -> None:
    clock, modem, client = fresh()
    client.modem_init()
    modem.silent_commands = {"SEND"}
    assert client.send_sms(OWNER, "hello") is None
    modem.inject(b"\r\n+CMGS: 7\r")
    clock.advance(DEFAULT_TIMEOUT_MS - 1)
    assert client.send_sms(OWNER, "hello") is None
    modem.inject(b"\nOK\r\n")
    assert client.send_sms(OWNER, "hello") == 7
    assert client.phase is ModemPhase.READY
    assert modem.transcript[-2:] == [b'AT+CMGS="+639171234567"\r', b"hello\x1a"]


def test_an_init_reply_split_across_a_retry_keeps_its_first_bytes() -> None:
    clock = VirtualClock()
    modem = FakeModem(clock, silent_commands={"AT"})
    client = ModemClient(modem)
    results = [client.modem_init()]
    modem.inject(b"\r\nO")
    clock.advance(DEFAULT_TIMEOUT_MS)
    results.append(client.modem_init())  # the deadline passed: AT is written again
    modem.inject(b"K\r\n")
    results.append(client.modem_init())  # the OK spans the retry
    assert results == [False, False, True]
    assert modem.transcript == [b"AT\r", b"AT\r", b"ATE0\r", b"AT+CMGF=1\r"]


class ClocklessChannel:
    """A channel with only ``write`` and ``read_available``, around a fake modem."""

    def __init__(self, modem: FakeModem):
        self.write = modem.write
        self.read_available = modem.read_available


def test_a_compliant_exchange_reads_no_clock() -> None:
    client = ModemClient(ClocklessChannel(FakeModem()))
    assert client.modem_init() is True
    assert [client.send_sms(OWNER, "hello") for _ in range(3)] == [1, 2, 3]


def test_unsolicited_lines_around_a_reply_are_skipped() -> None:
    _, modem, client = fresh()
    client.modem_init()
    modem.inject(b"\r\nRING\r\n")
    assert client.send_sms(OWNER, "hello") == 1  # the walk finds the prompt
    modem.inject(b"\r\n+CMTI: \"SM\",3\r\n")
    assert client.send_sms(OWNER, "again") == 2
    assert client.phase is ModemPhase.READY


def test_error_to_the_send_header_fails_at_once() -> None:
    clock = VirtualClock()
    modem = FakeModem(clock, fail_commands={"AT+CMGS"})
    client = ModemClient(modem)
    client.modem_init()
    with pytest.raises(ErrorResponse) as err:
        client.send_sms(OWNER, "hello")
    assert str(err.value) == "ERROR response to 'AT+CMGS'"
    assert client.phase is ModemPhase.FAILED
    assert modem.transcript[-1] == b'AT+CMGS="+639171234567"\r'  # no body written
    assert clock.now_ms() == 0


LONGEST_REF = "9" * 640


@pytest.mark.parametrize("text,ref", [("0", 0), ("255", 255), ("256", 256), ("007", 7),
                                      (LONGEST_REF, int(LONGEST_REF))])
@pytest.mark.parametrize("noise", [b"", b"\r\nRING\r\n"])
def test_a_reference_of_ascii_digits_is_read(text: str, ref: int, noise: bytes) -> None:
    # without noise the compliant pattern reads it, with noise the walk does
    client = ModemClient(ReplyModem(VirtualClock(), noise + b"\r\n+CMGS: %s\r\nOK\r\n"
                                    % text.encode("ascii")))
    client.modem_init()
    assert client.send_sms(OWNER, "hello") == ref


@pytest.mark.parametrize("text", ["-5", "1_0", "+5", "", "12a", "５", "1 2", "9" * 641])
@pytest.mark.parametrize("noise", [b"", b"\r\nRING\r\n"])
def test_any_other_reference_is_unreadable(text: str, noise: bytes) -> None:
    reply = noise + b"\r\n+CMGS: " + text.encode("utf-8") + b"\r\nOK\r\n"
    client = ModemClient(ReplyModem(VirtualClock(), reply))
    client.modem_init()
    line = f"+CMGS: {text}".encode("utf-8").decode("ascii", errors="replace").strip()
    with pytest.raises(SendRejected) as err:
        client.send_sms(OWNER, "hello")
    assert str(err.value) == f"unreadable message reference: {line!r}"
    assert client.phase is ModemPhase.FAILED


def test_a_send_in_flight_takes_only_its_own_message() -> None:
    _, modem, client = fresh()
    client.modem_init()
    modem.silent_commands = {"SEND"}
    assert client.send_sms(OWNER, "first") is None
    with pytest.raises(ContractViolation):
        client.modem_init()
    with pytest.raises(SendRejected) as err:
        client.send_sms(OWNER, "second")
    assert str(err.value) == "message withdrawn while in flight"
    assert client.phase is ModemPhase.FAILED
    modem.silent_commands.clear()
    client.modem_init()
    assert client.send_sms(OWNER, "second") == 1  # the first body got no reference
