"""Host-speed calibration for the wall-clock metrics.

The benchmark's host runs the same code up to twice as slowly for tens of
seconds at a time; thread CPU time drifts the same way, so no clock hides
it.  A run therefore times :func:`calibration_loop` before every timed
window and scales its fastest window by how far its fastest calibration was
from :data:`CALIBRATION_REFERENCE_S`.  The fastest window and the fastest
calibration of one run are taken in the same fast spells of the host, so
the ratio holds when the spells differ between runs.
"""

from __future__ import annotations

import struct
from time import perf_counter
from typing import Any, List, Tuple

#: Seconds :func:`calibration_loop` takes at its fastest on the reference
#: host (a 2-vCPU Xeon VM at 2.0 GHz, Python 3.11).  Wall-clock figures are
#: reported as if the run's fastest calibration had taken this long.
CALIBRATION_REFERENCE_S = 0.006


def calibration_loop() -> float:
    """Seconds one fixed encode/decode round trip of nested data takes now.

    The loop lives in the benchmark and runs no program code, so a change to
    the program cannot move it while the host's speed does.  It does the
    same kind of interpreter work as the middleware: ``struct`` packing and
    a recursive walk over nested lists, dicts and strings.
    """
    started = perf_counter()
    value = [
        [f"sku-{index}", index, [index, index + 1, index + 2], {"q": index}]
        for index in range(200)
    ]
    for _ in range(5):
        chunks: List[bytes] = []
        _encode(value, chunks)
        decoded, _ = _decode(b"".join(chunks), 0)
        if decoded != value:
            raise RuntimeError("calibration round trip changed its data")
    return perf_counter() - started


_INT = struct.Struct("<bq")
_SIZED = struct.Struct("<bI")


def _encode(value: Any, chunks: List[bytes]) -> None:
    if isinstance(value, int):
        chunks.append(_INT.pack(1, value))
    elif isinstance(value, str):
        data = value.encode()
        chunks.append(_SIZED.pack(2, len(data)))
        chunks.append(data)
    elif isinstance(value, dict):
        chunks.append(_SIZED.pack(4, len(value)))
        for key, item in value.items():
            _encode(key, chunks)
            _encode(item, chunks)
    else:
        chunks.append(_SIZED.pack(3, len(value)))
        for item in value:
            _encode(item, chunks)


def _decode(data: bytes, offset: int) -> Tuple[Any, int]:
    tag = data[offset]
    if tag == 1:
        return _INT.unpack_from(data, offset)[1], offset + _INT.size
    count = _SIZED.unpack_from(data, offset)[1]
    offset += _SIZED.size
    if tag == 2:
        return data[offset:offset + count].decode(), offset + count
    items = []
    for _ in range(count * 2 if tag == 4 else count):
        item, offset = _decode(data, offset)
        items.append(item)
    if tag == 4:
        return dict(zip(items[::2], items[1::2])), offset
    return items, offset
