"""Unit tests for the interchangeable transports (SOAP, RMI, CORBA, in-process)."""

from __future__ import annotations

import pytest

from repro.errors import TransportError, UnknownTransportError
from repro.transports.base import TransportRegistry, frame_message, unframe_message
from repro.transports.codec import (
    decode_message,
    decode_message_list,
    encode_message,
    encode_message_list,
)
from repro.transports.corba import CorbaTransport
from repro.transports.inproc import InProcTransport
from repro.transports.rmi import RmiTransport
from repro.transports.soap import SoapTransport

ALL_TRANSPORTS = [SoapTransport(), RmiTransport(), CorbaTransport(), InProcTransport()]

SAMPLE_REQUEST = {
    "target": "server:12",
    "interface": "Cache_O_Int",
    "member": "put",
    "args": ["key-1", 42, 3.5, True, None, [1, 2, 3], {"nested": "map"}],
    "kwargs": {"overwrite": False},
}

SAMPLE_RESPONSE_OK = {"result": {"__kind__": "list", "items": [1, "two", None]}}
SAMPLE_RESPONSE_ERROR = {"error": {"type": "KeyError", "message": "missing"}}


@pytest.mark.parametrize("transport", ALL_TRANSPORTS, ids=lambda t: t.name)
class TestRoundTrips:
    def test_request_round_trip(self, transport):
        payload = transport.encode_request(SAMPLE_REQUEST)
        assert isinstance(payload, bytes) and payload
        decoded = transport.decode_request(payload)
        assert decoded["target"] == SAMPLE_REQUEST["target"]
        assert decoded["member"] == "put"
        assert list(decoded["args"]) == list(SAMPLE_REQUEST["args"])
        assert decoded["kwargs"] == SAMPLE_REQUEST["kwargs"]

    def test_success_response_round_trip(self, transport):
        payload = transport.encode_response(SAMPLE_RESPONSE_OK)
        decoded = transport.decode_response(payload)
        assert decoded["result"] == SAMPLE_RESPONSE_OK["result"]

    def test_error_response_round_trip(self, transport):
        payload = transport.encode_response(SAMPLE_RESPONSE_ERROR)
        decoded = transport.decode_response(payload)
        assert decoded["error"]["type"] == "KeyError"
        assert decoded["error"]["message"] == "missing"

    def test_empty_arguments(self, transport):
        request = {"target": "t", "interface": "I", "member": "m", "args": [], "kwargs": {}}
        decoded = transport.decode_request(transport.encode_request(request))
        assert list(decoded["args"]) == []
        assert decoded["kwargs"] == {}

    def test_unicode_strings_survive(self, transport):
        request = dict(SAMPLE_REQUEST, args=["héllo wörld ✓"])
        decoded = transport.decode_request(transport.encode_request(request))
        assert decoded["args"][0] == "héllo wörld ✓"

    def test_malformed_payload_raises(self, transport):
        with pytest.raises(TransportError):
            transport.decode_request(b"\x00\x01garbage that is not a message")


class TestRelativeCosts:
    """The paper's transports differ in verbosity; the ordering must hold."""

    def test_soap_messages_are_larger_than_binary_ones(self):
        soap = SoapTransport().encode_request(SAMPLE_REQUEST)
        rmi = RmiTransport().encode_request(SAMPLE_REQUEST)
        corba = CorbaTransport().encode_request(SAMPLE_REQUEST)
        assert len(soap) > len(corba) > len(rmi)

    def test_processing_overhead_ordering(self):
        assert SoapTransport().processing_overhead > CorbaTransport().processing_overhead
        assert CorbaTransport().processing_overhead > RmiTransport().processing_overhead
        assert InProcTransport().processing_overhead == 0.0

    def test_message_type_confusion_is_detected(self):
        rmi = RmiTransport()
        request_payload = rmi.encode_request(SAMPLE_REQUEST)
        with pytest.raises(TransportError):
            rmi.decode_response(request_payload)

    def test_corba_header_carries_body_length(self):
        corba = CorbaTransport()
        payload = corba.encode_request(SAMPLE_REQUEST)
        with pytest.raises(TransportError):
            corba.decode_request(payload[:-1])  # truncated body


class TestBinaryCodec:
    def test_scalar_round_trips(self):
        for value in (None, True, False, 0, -17, 2**40, 3.25, "text", ""):
            assert decode_message(encode_message({"v": value}))["v"] == value

    def test_nested_structures(self):
        value = {"list": [1, [2, {"x": None}]], "flag": True}
        assert decode_message(encode_message(value)) == value

    def test_alignment_round_trip(self):
        value = {"a": 1, "b": [1.5, 2.5], "c": "padded"}
        assert decode_message(encode_message(value, alignment=8), alignment=8) == value

    def test_non_string_map_keys_rejected(self):
        with pytest.raises(TransportError):
            encode_message({1: "x"})

    def test_unmarshallable_python_object_rejected(self):
        with pytest.raises(TransportError):
            encode_message({"v": object()})

    def test_truncated_stream_detected(self):
        payload = encode_message({"k": "value"})
        with pytest.raises(TransportError):
            decode_message(payload[:-3])

    @pytest.mark.parametrize("alignment", [1, 8])
    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**70, -(10**30)])
    def test_ints_outside_int64_rejected(self, alignment, value):
        with pytest.raises(TransportError, match="int64"):
            encode_message({"v": [1, value]}, alignment=alignment)
        with pytest.raises(TransportError, match="int64"):
            encode_message_list([{"v": value}], alignment=alignment)

    @pytest.mark.parametrize("alignment", [1, 8])
    def test_int64_bounds_accepted(self, alignment):
        message = {"v": [-(2**63), 2**63 - 1]}
        assert decode_message(encode_message(message, alignment=alignment), alignment) == message

    @pytest.mark.parametrize("alignment", [1, 8])
    def test_invalid_utf8_rejected(self, alignment):
        payload = bytearray(encode_message({"k": "ab"}, alignment=alignment))
        payload[-1] = 0xFF  # not a UTF-8 byte anywhere
        with pytest.raises(TransportError, match="UTF-8"):
            decode_message(bytes(payload), alignment=alignment)
        key = bytearray(encode_message({"ab": None}, alignment=alignment))
        key[-2] = 0xC3  # a lead byte followed by a non-continuation byte
        with pytest.raises(TransportError, match="UTF-8"):
            decode_message(bytes(key), alignment=alignment)

    @pytest.mark.parametrize("alignment", [1, 8])
    @pytest.mark.parametrize("junk", [b"\x00", b"junk"], ids=["nul", "junk"])
    def test_trailing_bytes_rejected(self, alignment, junk):
        payload = encode_message({"a": 1}, alignment=alignment)
        with pytest.raises(TransportError, match="trailing"):
            decode_message(payload + junk, alignment=alignment)
        batch = encode_message_list([{"a": 1}], alignment=alignment)
        with pytest.raises(TransportError, match="trailing"):
            decode_message_list(batch + junk, alignment=alignment)

    @pytest.mark.parametrize("alignment", [1, 8])
    def test_string_length_past_end_rejected(self, alignment):
        payload = encode_message({"k": "value"}, alignment=alignment)
        with pytest.raises(TransportError, match="truncated"):
            decode_message(payload[:-1], alignment=alignment)
        huge = payload.replace(b"\x00\x00\x00\x05value", b"\xff\xff\xff\xffvalue")
        assert huge != payload
        with pytest.raises(TransportError, match="truncated"):
            decode_message(huge, alignment=alignment)

    @pytest.mark.parametrize("alignment", [1, 8])
    def test_unknown_tag_and_wrong_top_level_type_rejected(self, alignment):
        with pytest.raises(TransportError, match="unknown wire tag 9"):
            decode_message(b"\x09", alignment=alignment)
        with pytest.raises(TransportError, match="dictionary"):
            decode_message(encode_message_list([], alignment=alignment), alignment=alignment)
        with pytest.raises(TransportError, match="list"):
            decode_message_list(encode_message({}, alignment=alignment), alignment=alignment)

    @pytest.mark.parametrize("alignment", [1, 8])
    def test_unencodable_string_rejected(self, alignment):
        with pytest.raises(TransportError, match="UTF-8"):
            encode_message({"v": "lone \ud800 surrogate"}, alignment=alignment)


class TestRegistryAndFraming:
    def test_registry_lookup(self):
        registry = TransportRegistry(ALL_TRANSPORTS)
        assert registry.get("soap").name == "soap"
        assert "rmi" in registry
        assert registry.names() == {"soap", "rmi", "corba", "inproc"}
        assert len(registry) == 4

    def test_unknown_transport_raises_with_available_listing(self):
        registry = TransportRegistry([RmiTransport()])
        with pytest.raises(UnknownTransportError) as excinfo:
            registry.get("iiop")
        assert "rmi" in str(excinfo.value)

    def test_frame_unframe_round_trip(self):
        framed = frame_message("soap", b"<xml/>")
        assert unframe_message(framed) == ("soap", b"<xml/>")

    def test_frame_preserves_binary_bodies_containing_newlines(self):
        framed = frame_message("rmi", b"line1\nline2")
        name, body = unframe_message(framed)
        assert name == "rmi" and body == b"line1\nline2"

    def test_unframe_rejects_malformed_payload(self):
        with pytest.raises(TransportError):
            unframe_message(b"no-prefix-here")

    def test_soap_rejects_non_wire_values(self):
        with pytest.raises(TransportError):
            SoapTransport().encode_request({"target": "t", "member": "m", "args": [object()], "kwargs": {}})
