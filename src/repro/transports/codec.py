"""The binary wire codec shared by the RMI-like and CORBA-like transports.

Both binary transports carry the wire-value domain (None, bool, int, float,
str, list, dict — what :mod:`repro.runtime.serialization` produces) as one
tagged value.  They share this codec and differ only in its *alignment*:
``alignment=1`` gives the packed RMI-like stream, ``alignment=8`` the
CDR-style stream in which every length and number sits on its natural
boundary (CORBA).  Four functions make up the public surface:

* :func:`encode_message` / :func:`decode_message` — ONE request/response
  dictionary::

      message = {"member": "submit", "args": [1, 2.5, "sku"]}
      packed = encode_message(message)                    # RMI-like stream
      aligned = encode_message(message, alignment=8)      # CDR-style padding
      assert decode_message(packed) == message
      assert decode_message(aligned, alignment=8) == message
      assert len(aligned) >= len(packed)                  # padding costs bytes

* :func:`encode_message_list` / :func:`decode_message_list` — a BATCH of
  dictionaries as one tagged list in one stream, so a batched wire message
  pays the framing once::

      batch = encode_message_list([request.to_dict() for request in requests])
      dicts = decode_message_list(batch)

Wire format
-----------

Every value starts with a one-byte tag; multi-byte fields are big-endian:

=====  =========  ==========================================================
tag    value      followed by
=====  =========  ==========================================================
0      None       nothing
1      True       nothing
2      False      nothing
3      int        int64 (signed, two's complement)
4      float      IEEE 754 binary64
5      str        uint32 byte length, then that many bytes of UTF-8
6      list       uint32 item count, then each item as a tagged value
7      map        uint32 entry count, then per entry: the key as uint32
                  length + UTF-8 bytes (no tag), then its tagged value
=====  =========  ==========================================================

Tuples encode as lists; instances of subclasses of these types encode as
their base type, in the order of the table.  Ints must lie in the int64
range ``[-2**63, 2**63 - 1]``, strings and map keys must be encodable as
UTF-8, and map keys must be strings.

**Alignment.**  With ``alignment=a > 1``, zero bytes are inserted before
every uint32 (``m = min(4, a)``) and every int64/float (``m = min(8, a)``)
until its offset from the start of the stream is a multiple of ``m``.  Tags
and string bytes are never padded, and nothing follows the last value.  The
stream does not say which alignment produced it: a decoder must use the
producer's (the transport name in the frame carries it).

**Errors.**  Encoding a value outside the domain — an object that is not a
wire value, a non-string map key, an int outside int64, a string that is not
UTF-8 encodable — raises :class:`~repro.errors.TransportError`.  So does
decoding malformed input: a truncated stream or a string running past its
end, an unknown tag, invalid UTF-8, bytes left over after the top-level
value, a message that is not a map or a batch that is not a list of maps.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Tuple

from repro._errors import TransportError

_TAG_NONE = 0
_TAG_TRUE = 1
_TAG_FALSE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_LIST = 6
_TAG_MAP = 7

_Writer = Callable[[Any, bytearray], None]
_Reader = Callable[[bytes, int], Tuple[Any, int]]


def _unaliased(value: Any) -> Any:
    """``value`` as its exact wire type, for instances of a subclass of one."""
    if isinstance(value, int):
        return int.__index__(value)
    if isinstance(value, float):
        return float.__float__(value)
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, (list, tuple)):
        return list(value)
    if isinstance(value, dict):
        return dict(value.items())
    raise TransportError(
        f"value of type {type(value).__name__} is not a wire value; "
        "marshal it before handing it to a transport"
    )


def _map_key(key: Any) -> str:
    if isinstance(key, str):
        return str.__str__(key)
    raise TransportError(f"wire map keys must be strings, got {type(key).__name__}")


def _make_writer(alignment: int) -> _Writer:
    """The value writer for ``alignment``, which lies in 1..8."""
    aligned = alignment > 1
    m4 = min(4, alignment)
    m8 = min(8, alignment)
    # Packers indexed by the number of pad bytes before the field; a tag and
    # its field share one struct.  The packed stream only uses index 0
    # (``!I``, ``!BI``, ``!Bq``, ``!Bd``).
    pack_u32 = [struct.Struct(f"!{pad}xI").pack for pad in range(m4)]
    pack_tag_u32 = [struct.Struct(f"!B{pad}xI").pack for pad in range(m4)]
    pack_tag_i64 = [struct.Struct(f"!B{pad}xq").pack for pad in range(m8)]
    pack_tag_f64 = [struct.Struct(f"!B{pad}xd").pack for pad in range(m8)]

    # Ints in lists and strings in maps -- most of a payload's values -- are
    # written inline rather than by a recursive call.
    def write(value: Any, buffer: bytearray) -> None:
        kind = type(value)
        if kind is int:
            buffer += pack_tag_i64[(-1 - len(buffer)) % m8 if aligned else 0](_TAG_INT, value)
        elif kind is str:
            data = value.encode()
            buffer += pack_tag_u32[(-1 - len(buffer)) % m4 if aligned else 0](
                _TAG_STR, len(data)
            )
            buffer += data
        elif kind is dict:
            buffer += pack_tag_u32[(-1 - len(buffer)) % m4 if aligned else 0](
                _TAG_MAP, len(value)
            )
            for key, item in value.items():
                if type(key) is not str:
                    key = _map_key(key)
                data = key.encode()
                buffer += pack_u32[-len(buffer) % m4 if aligned else 0](len(data))
                buffer += data
                if type(item) is str:
                    data = item.encode()
                    buffer += pack_tag_u32[(-1 - len(buffer)) % m4 if aligned else 0](
                        _TAG_STR, len(data)
                    )
                    buffer += data
                else:
                    write(item, buffer)
        elif kind is list or kind is tuple:
            buffer += pack_tag_u32[(-1 - len(buffer)) % m4 if aligned else 0](
                _TAG_LIST, len(value)
            )
            for item in value:
                if type(item) is int:
                    buffer += pack_tag_i64[(-1 - len(buffer)) % m8 if aligned else 0](
                        _TAG_INT, item
                    )
                else:
                    write(item, buffer)
        elif kind is float:
            buffer += pack_tag_f64[(-1 - len(buffer)) % m8 if aligned else 0](_TAG_FLOAT, value)
        elif kind is bool:
            buffer.append(_TAG_TRUE if value else _TAG_FALSE)
        elif value is None:
            buffer.append(_TAG_NONE)
        else:
            write(_unaliased(value), buffer)

    return write


def _make_reader(alignment: int) -> _Reader:
    """The value reader for ``alignment``, which lies in 1..8."""
    aligned = alignment > 1
    m4 = min(4, alignment)
    m8 = min(8, alignment)
    unpack_u32 = struct.Struct("!I").unpack_from
    unpack_i64 = struct.Struct("!q").unpack_from
    unpack_f64 = struct.Struct("!d").unpack_from

    # Ints in lists and strings in maps are read inline, as they are written.
    def read(data: bytes, offset: int) -> Tuple[Any, int]:
        tag = data[offset]
        offset += 1
        if tag == _TAG_INT:
            if aligned:
                offset += -offset % m8
            return unpack_i64(data, offset)[0], offset + 8
        if tag == _TAG_STR:
            if aligned:
                offset += -offset % m4
            start = offset + 4
            end = start + unpack_u32(data, offset)[0]
            if end > len(data):
                raise TransportError("truncated binary message")
            return data[start:end].decode(), end
        if tag == _TAG_MAP:
            if aligned:
                offset += -offset % m4
            count = unpack_u32(data, offset)[0]
            offset += 4
            result = {}
            for _ in range(count):
                if aligned:
                    offset += -offset % m4
                start = offset + 4
                offset = start + unpack_u32(data, offset)[0]
                if offset > len(data):
                    raise TransportError("truncated binary message")
                key = data[start:offset].decode()
                if data[offset] == _TAG_STR:
                    offset += 1
                    if aligned:
                        offset += -offset % m4
                    start = offset + 4
                    offset = start + unpack_u32(data, offset)[0]
                    if offset > len(data):
                        raise TransportError("truncated binary message")
                    result[key] = data[start:offset].decode()
                else:
                    result[key], offset = read(data, offset)
            return result, offset
        if tag == _TAG_LIST:
            if aligned:
                offset += -offset % m4
            count = unpack_u32(data, offset)[0]
            offset += 4
            items = []
            append = items.append
            for _ in range(count):
                if data[offset] == _TAG_INT:
                    offset += 1
                    if aligned:
                        offset += -offset % m8
                    append(unpack_i64(data, offset)[0])
                    offset += 8
                else:
                    item, offset = read(data, offset)
                    append(item)
            return items, offset
        if tag == _TAG_FLOAT:
            if aligned:
                offset += -offset % m8
            return unpack_f64(data, offset)[0], offset + 8
        if tag == _TAG_NONE:
            return None, offset
        if tag == _TAG_TRUE:
            return True, offset
        if tag == _TAG_FALSE:
            return False, offset
        raise TransportError(f"unknown wire tag {tag}")

    return read


# Every alignment of 8 or more pads exactly like 8, and every one below 1
# like 1, so these eight pairs serve all of them.
_WRITERS = tuple(_make_writer(alignment) for alignment in range(1, 9))
_READERS = tuple(_make_reader(alignment) for alignment in range(1, 9))


def _encode(value: Any, alignment: int) -> bytes:
    buffer = bytearray()
    try:
        _WRITERS[min(max(alignment, 1), 8) - 1](value, buffer)
    except struct.error as exc:
        raise TransportError(
            f"wire ints must lie in the int64 range [-2**63, 2**63 - 1] ({exc})"
        ) from None
    except UnicodeEncodeError as exc:
        raise TransportError(f"wire strings must be UTF-8 encodable ({exc.reason})") from None
    return bytes(buffer)


def _decode(payload: bytes, alignment: int) -> Any:
    try:
        value, end = _READERS[min(max(alignment, 1), 8) - 1](payload, 0)
    except (struct.error, IndexError):
        raise TransportError("truncated binary message") from None
    except UnicodeDecodeError as exc:
        raise TransportError(f"invalid UTF-8 in binary message ({exc.reason})") from None
    if end != len(payload):
        raise TransportError(
            f"{len(payload) - end} trailing byte(s) after the binary message's value"
        )
    return value


def encode_message(message: dict, alignment: int = 1) -> bytes:
    """Encode a request/response dictionary as a single tagged value."""
    return _encode(message, alignment)


def decode_message(payload: bytes, alignment: int = 1) -> dict:
    """Decode a message produced by :func:`encode_message`."""
    value = _decode(payload, alignment)
    if not isinstance(value, dict):
        raise TransportError("binary message did not contain a dictionary")
    return value


def encode_message_list(messages: list, alignment: int = 1) -> bytes:
    """Encode a batch of request/response dictionaries as one tagged list.

    The batch is one stream (and therefore one alignment stream), so the
    framing cost of the encoding is paid once for the whole batch rather than
    once per message.
    """
    return _encode(list(messages), alignment)


def decode_message_list(payload: bytes, alignment: int = 1) -> list[dict]:
    """Decode a batch produced by :func:`encode_message_list`."""
    value = _decode(payload, alignment)
    if not isinstance(value, list):
        raise TransportError("binary batch did not contain a list")
    for item in value:
        if not isinstance(item, dict):
            raise TransportError("binary batch items must be dictionaries")
    return value
