"""Reference implementation of the binary wire codec, kept as a test oracle.

This is the original two-class codec (:class:`BinaryWriter` /
:class:`BinaryReader`: a ``BytesIO`` writer and a slicing reader) that
:mod:`repro.transports.codec` replaced with a single-pass encoder and an
offset-based decoder.  The replacement must produce the same bytes and decode
to the same values; ``tests/test_wire_properties.py`` checks it against this
oracle.  It is deliberately left as it was, slow paths included.
"""

from __future__ import annotations

import struct
from io import BytesIO
from typing import Any

from repro.errors import TransportError

_TAG_NONE = 0
_TAG_TRUE = 1
_TAG_FALSE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_LIST = 6
_TAG_MAP = 7


class BinaryWriter:
    """Writes tagged values into a byte buffer."""

    def __init__(self, alignment: int = 1) -> None:
        self._buffer = BytesIO()
        self._alignment = max(1, alignment)

    # -- low-level ------------------------------------------------------------

    def _pad(self, size: int) -> None:
        if self._alignment <= 1:
            return
        position = self._buffer.tell()
        misalignment = position % min(size, self._alignment)
        if misalignment:
            self._buffer.write(b"\x00" * (min(size, self._alignment) - misalignment))

    def write_uint8(self, value: int) -> None:
        self._buffer.write(struct.pack("!B", value))

    def write_uint32(self, value: int) -> None:
        self._pad(4)
        self._buffer.write(struct.pack("!I", value))

    def write_int64(self, value: int) -> None:
        self._pad(8)
        self._buffer.write(struct.pack("!q", value))

    def write_float64(self, value: float) -> None:
        self._pad(8)
        self._buffer.write(struct.pack("!d", value))

    def write_string(self, value: str) -> None:
        data = value.encode("utf-8")
        self.write_uint32(len(data))
        self._buffer.write(data)

    # -- values ----------------------------------------------------------------

    def write_value(self, value: Any) -> None:
        if value is None:
            self.write_uint8(_TAG_NONE)
        elif value is True:
            self.write_uint8(_TAG_TRUE)
        elif value is False:
            self.write_uint8(_TAG_FALSE)
        elif isinstance(value, int):
            self.write_uint8(_TAG_INT)
            self.write_int64(value)
        elif isinstance(value, float):
            self.write_uint8(_TAG_FLOAT)
            self.write_float64(value)
        elif isinstance(value, str):
            self.write_uint8(_TAG_STR)
            self.write_string(value)
        elif isinstance(value, (list, tuple)):
            self.write_uint8(_TAG_LIST)
            self.write_uint32(len(value))
            for item in value:
                self.write_value(item)
        elif isinstance(value, dict):
            self.write_uint8(_TAG_MAP)
            self.write_uint32(len(value))
            for key, item in value.items():
                if not isinstance(key, str):
                    raise TransportError(
                        f"wire map keys must be strings, got {type(key).__name__}"
                    )
                self.write_string(key)
                self.write_value(item)
        else:
            raise TransportError(
                f"value of type {type(value).__name__} is not a wire value; "
                "marshal it before handing it to a transport"
            )

    def getvalue(self) -> bytes:
        return self._buffer.getvalue()


class BinaryReader:
    """Reads tagged values written by :class:`BinaryWriter`."""

    def __init__(self, payload: bytes, alignment: int = 1) -> None:
        self._payload = payload
        self._offset = 0
        self._alignment = max(1, alignment)

    # -- low-level ------------------------------------------------------------

    def _pad(self, size: int) -> None:
        if self._alignment <= 1:
            return
        misalignment = self._offset % min(size, self._alignment)
        if misalignment:
            self._offset += min(size, self._alignment) - misalignment

    def _take(self, count: int) -> bytes:
        if self._offset + count > len(self._payload):
            raise TransportError("truncated binary message")
        data = self._payload[self._offset : self._offset + count]
        self._offset += count
        return data

    def read_uint8(self) -> int:
        return struct.unpack("!B", self._take(1))[0]

    def read_uint32(self) -> int:
        self._pad(4)
        return struct.unpack("!I", self._take(4))[0]

    def read_int64(self) -> int:
        self._pad(8)
        return struct.unpack("!q", self._take(8))[0]

    def read_float64(self) -> float:
        self._pad(8)
        return struct.unpack("!d", self._take(8))[0]

    def read_string(self) -> str:
        length = self.read_uint32()
        return self._take(length).decode("utf-8")

    # -- values ----------------------------------------------------------------

    def read_value(self) -> Any:
        tag = self.read_uint8()
        if tag == _TAG_NONE:
            return None
        if tag == _TAG_TRUE:
            return True
        if tag == _TAG_FALSE:
            return False
        if tag == _TAG_INT:
            return self.read_int64()
        if tag == _TAG_FLOAT:
            return self.read_float64()
        if tag == _TAG_STR:
            return self.read_string()
        if tag == _TAG_LIST:
            count = self.read_uint32()
            return [self.read_value() for _ in range(count)]
        if tag == _TAG_MAP:
            count = self.read_uint32()
            result = {}
            for _ in range(count):
                key = self.read_string()
                result[key] = self.read_value()
            return result
        raise TransportError(f"unknown wire tag {tag}")

    @property
    def remaining(self) -> int:
        return len(self._payload) - self._offset


def oracle_encode(value: Any, alignment: int = 1) -> bytes:
    """``value`` encoded by the reference writer."""
    writer = BinaryWriter(alignment=alignment)
    writer.write_value(value)
    return writer.getvalue()


def oracle_decode(payload: bytes, alignment: int = 1) -> Any:
    """The first value in ``payload``, decoded by the reference reader."""
    return BinaryReader(payload, alignment=alignment).read_value()
