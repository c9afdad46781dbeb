"""Golden wire bytes: every transport's encoding of fixed messages, pinned.

The round-trip properties prove each transport is lossless, but a codec
rewrite could change the bytes and still round-trip — silently moving every
message size, and with it every simulated transmission time.  These tests pin
the exact output (length plus sha256, and the full hex of one-value messages
for each binary tag) so any change to the wire format has to be deliberate.

The fixed payloads exercise every tag of the binary codec: None, both
booleans, int64 min/max and negative ints, finite and infinite floats, empty
and astral-plane strings, nested lists and maps, plus a call-context ``ctx``
entry carrying the control fields of :meth:`CallContext.to_wire`.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.transports.codec import encode_message
from repro.transports.corba import CorbaTransport
from repro.transports.inproc import InProcTransport
from repro.transports.rmi import RmiTransport
from repro.transports.soap import SoapTransport

TRANSPORTS = {
    "rmi": RmiTransport(),
    "corba": CorbaTransport(),
    "soap": SoapTransport(),
    "inproc": InProcTransport(),
}

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

REQUEST = {
    "target": "server:12",
    "interface": "Orders_O_Int",
    "member": "submit",
    "args": [
        None,
        True,
        False,
        0,
        -1,
        -123456789,
        INT64_MIN,
        INT64_MAX,
        3.5,
        -0.25,
        float("inf"),
        float("-inf"),
        "",
        "sku-42",
        "héllo ✓ \U0001d11e\U0001f600",
        [1, [2, {"x": None}], []],
        {"nested": {"deep": [1.5, "s", {}]}, "empty": {}},
    ],
    "kwargs": {"overwrite": False, "limit": INT64_MAX},
    "ctx": {"i": "c-7", "t": "tenant-a", "d": 0.25, "x": "t-1", "p": "s-2"},
}

REQUEST_BARE = {
    "target": "server:3",
    "interface": "Catalog_O_Int",
    "member": "price",
    "args": [],
    "kwargs": {},
}

RESPONSE = {
    "result": {
        "items": [INT64_MIN, -1, float("inf"), "\U0001d11e"],
        "count": 3,
        "ratio": float("-inf"),
        "none": None,
        "flags": [True, False],
    }
}

ERROR_RESPONSE = {"error": {"type": "KeyError", "message": "missing ✓ \U0001f600"}}

KINDS = ("request", "response", "error_response", "batch_request", "batch_response")


def encode(transport, kind: str) -> bytes:
    """The wire bytes ``transport`` produces for message ``kind``."""
    if kind == "request":
        return transport.encode_request(REQUEST)
    if kind == "response":
        return transport.encode_response(RESPONSE)
    if kind == "error_response":
        return transport.encode_response(ERROR_RESPONSE)
    if kind == "batch_request":
        return transport.encode_batch_request([REQUEST, REQUEST_BARE])
    return transport.encode_batch_response([RESPONSE, ERROR_RESPONSE, {"result": None}])


#: ``(transport, kind) -> (payload length, sha256 of the payload)``.
GOLDEN = {
    ("rmi", "request"): (461, "d141b01f9a9100d49361b47a8efcf290e1e647c3815e60fed1bae48e23e5c4e1"),
    ("rmi", "response"): (134, "eeef83b0aec412afd03106ae12645b087d7e5d22dd896f2eb1dc4bb6d441ad72"),
    ("rmi", "error_response"): (
        75,
        "b9e3f3154e353207cf5be44bf7583988a2f89f9fbe13fcc12a243ac3b92d20d8",
    ),
    ("rmi", "batch_request"): (
        573,
        "b92a96ecc2d2f656ba3406301335d63a6d1d507fc5ca1a3d405343d1443d3627",
    ),
    ("rmi", "batch_response"): (
        227,
        "0b21fd36e9511177df6eb3ce9eb99a956a5d4508caa2d0f4f983a728d7ee3e84",
    ),
    ("corba", "request"): (603, "52dd02ebc7c40862989e1694da70393f94f86b41b3ee7f4d0a660328e4125c2a"),
    ("corba", "response"): (
        186,
        "348df5a716e2627d07c88b67e29110911dac980e1b427bd2c85182eab39ddcd2",
    ),
    ("corba", "error_response"): (
        92,
        "ae0e6e2b5bf138997d777cb2fb52a1a0aae5c681c55495e3b3f3f2e31344f77d",
    ),
    ("corba", "batch_request"): (
        732,
        "eabeb60d2f8887ed8b4440f4133294704a9d2932a07174c15f01760d7bac3c7a",
    ),
    ("corba", "batch_response"): (
        291,
        "cfa4843545ce0f5f2ac0fdd867fe929938499fec661997d64be2b4f824ada361",
    ),
    ("soap", "request"): (1587, "6680e588279b2d9f1ed50173df546436ff5e05bbd8cbe1145f71c5a8a99848d5"),
    ("soap", "response"): (543, "ed318c2281fe55fa9dc938af9e440097a711128ea91702270e7e7ae60c804b7a"),
    ("soap", "error_response"): (
        134,
        "72cd13174647b4b88145fa77b0ca02396655fbbb617e3432a8e5f077037eca04",
    ),
    ("soap", "batch_request"): (
        1725,
        "182bdf3db2e4983e244d230bcf218fb889a12cf3fb544bc820a8f50a8ff7ba41",
    ),
    ("soap", "batch_response"): (
        712,
        "177c7e0ed811e775da6e4b4126c3e5e2beb70a70685ead8bb504cec92fbf5575",
    ),
    ("inproc", "request"): (
        420,
        "b75a20b2a6883c1996f4c7603c041a5961030ead1cd309b8cd6ad6b37deea24b",
    ),
    ("inproc", "response"): (
        131,
        "e28dda7642c78490a782b08853fecc88942d05eb2a510465ef6f514222898f00",
    ),
    ("inproc", "error_response"): (
        69,
        "f6eec9c3abc80ce757ca42339d96d523452c9dbabe3be657f3a81486dcb0c040",
    ),
    ("inproc", "batch_request"): (
        521,
        "57bc3d91f0f9f05c6e1fac2d15c4d53ede162c67d1e6ca162fe42da7b77f6e97",
    ),
    ("inproc", "batch_response"): (
        233,
        "e0a14f7e0082f4a57abd9e92fbbd4d4aa397f7cae141654276bb807386614d13",
    ),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(TRANSPORTS))
def test_wire_bytes_are_pinned(name, kind):
    payload = encode(TRANSPORTS[name], kind)
    assert (len(payload), hashlib.sha256(payload).hexdigest()) == GOLDEN[(name, kind)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(TRANSPORTS))
def test_pinned_messages_round_trip(name, kind):
    transport = TRANSPORTS[name]
    payload = encode(transport, kind)
    if kind == "request":
        assert transport.decode_request(payload) == REQUEST
    elif kind == "batch_request":
        assert transport.decode_batch_request(payload) == [REQUEST, REQUEST_BARE]
    elif kind == "batch_response":
        assert transport.decode_batch_response(payload) == [
            RESPONSE,
            ERROR_RESPONSE,
            {"result": None},
        ]
    else:
        expected = RESPONSE if kind == "response" else ERROR_RESPONSE
        assert transport.decode_response(payload) == expected


#: ``value -> (hex of encode_message({"v": value}) at alignment 1, at 8)``:
#: one row per tag, so the byte layout of each is readable here.
TAG_HEX = [
    (None, "0700000001000000017600", "0700000000000001000000017600"),
    (True, "0700000001000000017601", "0700000000000001000000017601"),
    (False, "0700000001000000017602", "0700000000000001000000017602"),
    (
        7,
        "07000000010000000176030000000000000007",
        "070000000000000100000001760300000000000000000007",
    ),
    (
        -1,
        "0700000001000000017603ffffffffffffffff",
        "07000000000000010000000176030000ffffffffffffffff",
    ),
    (
        INT64_MIN,
        "07000000010000000176038000000000000000",
        "070000000000000100000001760300008000000000000000",
    ),
    (
        INT64_MAX,
        "07000000010000000176037fffffffffffffff",
        "070000000000000100000001760300007fffffffffffffff",
    ),
    (
        2.5,
        "07000000010000000176044004000000000000",
        "070000000000000100000001760400004004000000000000",
    ),
    (
        float("inf"),
        "07000000010000000176047ff0000000000000",
        "070000000000000100000001760400007ff0000000000000",
    ),
    (
        float("-inf"),
        "0700000001000000017604fff0000000000000",
        "07000000000000010000000176040000fff0000000000000",
    ),
    ("", "070000000100000001760500000000", "0700000000000001000000017605000000000000"),
    (
        "\U0001d11e",
        "070000000100000001760500000004f09d849e",
        "0700000000000001000000017605000000000004f09d849e",
    ),
    ([], "070000000100000001760600000000", "0700000000000001000000017606000000000000"),
    (
        [1, "ab"],
        "07000000010000000176060000000203000000000000000105000000026162",
        "0700000000000001000000017606000000000002030000000000000000000001"
        "05000000000000026162",
    ),
    (
        {"k": -2},
        "070000000100000001760700000001000000016b03fffffffffffffffe",
        "0700000000000001000000017607000000000001000000016b03000000000000fffffffffffffffe",
    ),
]


@pytest.mark.parametrize(
    "value, packed, aligned", TAG_HEX, ids=[repr(row[0]) for row in TAG_HEX]
)
def test_single_value_bytes_are_pinned(value, packed, aligned):
    message = {"v": value}
    assert encode_message(message, alignment=1).hex() == packed
    assert encode_message(message, alignment=8).hex() == aligned
