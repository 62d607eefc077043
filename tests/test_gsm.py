from __future__ import annotations

import pytest

from motoguard.core import ContractViolation, VirtualClock
from motoguard.gsm import (ChannelClosed, CommandTimeout, ErrorResponse, FakeModem,
                           InvalidNumber, ModemClient, ModemPhase, PromptTimeout,
                           SendRejected)

OWNER = "+639171234567"


def fresh() -> tuple[VirtualClock, FakeModem, ModemClient]:
    clock = VirtualClock()
    modem = FakeModem(clock)
    return clock, modem, ModemClient(modem)


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


def test_ref_start_is_scriptable() -> None:
    clock = VirtualClock()
    modem = FakeModem(clock, ref_start=41)
    client = ModemClient(modem)
    client.modem_init()
    assert client.send_sms(OWNER, "x") == 41


def test_silent_modem_times_out_after_retries() -> None:
    clock = VirtualClock()
    modem = FakeModem(clock, silent_commands={"AT"})
    client = ModemClient(modem)
    with pytest.raises(CommandTimeout) as err:
        client.modem_init()
    assert err.value.command == "AT"
    assert client.phase is ModemPhase.FAILED
    assert modem.transcript == [b"AT\r"] * 3  # first try plus two retries
    # three command waits plus one drain read, each charged a full timeout
    assert clock.now_ms() == 4000


def test_two_dropped_probes_recover_three_do_not() -> None:
    clock = VirtualClock()
    client = ModemClient(FlakyModem(clock, drop_first=2))
    client.modem_init()
    assert client.phase is ModemPhase.READY

    clock = VirtualClock()
    client = ModemClient(FlakyModem(clock, drop_first=3))
    with pytest.raises(CommandTimeout):
        client.modem_init()


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
    with pytest.raises(PromptTimeout):
        client.send_sms(OWNER, "hello")
    assert client.phase is ModemPhase.FAILED


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
