"""Per-layer wall-clock timers for the traced run, installed from outside ``src/``.

:class:`LayerTimers` wraps the public entry points of each layer with
``perf_counter_ns`` timers.  A wrapper's *self* time is its duration minus the
time covered by the wrappers it (transitively) called, so the self times of
all layers never count one nanosecond twice.  Nothing is installed unless the
traced run calls :meth:`LayerTimers.install`; :func:`assert_untraced` lets the
untraced run prove that every entry point is still the original function.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple

from repro import ApplicationTransformer, DistributionController
from repro.api import InterceptorChain
from repro.api.dispatch import BatchPipe, ChainedPipe, DirectPipe, StreamPipe
from repro.core.transformer import TransformedApplication
from repro.network.simnet import SimulatedNetwork
from repro.runtime.address_space import AddressSpace
from repro.runtime.caching import ResultCache
from repro.runtime.pipelining import PipelineScheduler
from repro.runtime.serialization import Marshaller
from repro.transports.corba import CorbaTransport
from repro.transports.inproc import InProcTransport
from repro.transports.rmi import RmiTransport
from repro.transports.soap import SoapTransport

#: The attribute every installed wrapper carries.
MARKER = "__perfbench_layer__"

_TRANSPORTS = (InProcTransport, RmiTransport, CorbaTransport, SoapTransport)
_ENCODERS = ("encode_request", "encode_response", "encode_batch_request", "encode_batch_response")
_DECODERS = ("decode_request", "decode_response", "decode_batch_request", "decode_batch_response")

#: ``(owner, attribute, layer)`` of every entry point timed in the traced run.
TARGETS: List[Tuple[type, str, str]] = [
    (DirectPipe, "enqueue", "api.pipe"),
    (BatchPipe, "enqueue", "api.pipe"),
    (StreamPipe, "enqueue", "api.pipe"),
    (ChainedPipe, "enqueue", "api.pipe"),
    (InterceptorChain, "open", "api.interceptor"),
    (PipelineScheduler, "submit_with_context", "pipelining"),
    (PipelineScheduler, "flush", "pipelining"),
    (AddressSpace, "invoke_remote", "address_space.invoke"),
    (AddressSpace, "invoke_remote_many", "address_space.invoke"),
    (AddressSpace, "invoke_remote_many_async", "address_space.invoke"),
    (Marshaller, "to_wire", "serialization"),
    (Marshaller, "from_wire", "serialization"),
    *[(transport, name, "codec.encode") for transport in _TRANSPORTS for name in _ENCODERS],
    *[(transport, name, "codec.decode") for transport in _TRANSPORTS for name in _DECODERS],
    (SimulatedNetwork, "send_request", "simnet"),
    (SimulatedNetwork, "post", "simnet"),
    (ResultCache, "lookup", "caching.lookup"),
    (ApplicationTransformer, "transform", "core.transform"),
    (TransformedApplication, "deploy", "core.deploy"),
    (DistributionController, "make_remote", "redistribution"),
    (DistributionController, "make_local", "redistribution"),
    (DistributionController, "move", "redistribution"),
]

#: Layers whose nested calls into themselves are not timed again: the
#: marshaller recurses per element and ``move`` calls ``make_remote``.
_OUTERMOST_ONLY = frozenset({"serialization", "redistribution"})

#: Every patched attribute, including the network's handler registration.
_PATCHED = [(owner, name) for owner, name, _ in TARGETS] + [(SimulatedNetwork, "register")]
_ORIGINALS: Dict[Tuple[type, str], Any] = {key: key[0].__dict__[key[1]] for key in _PATCHED}


def assert_untraced() -> None:
    """Raise unless every timed entry point is the program's own function."""
    for (owner, name), original in _ORIGINALS.items():
        current = owner.__dict__.get(name)
        if current is not original or hasattr(current, MARKER):
            raise RuntimeError(f"{owner.__name__}.{name} is wrapped in an untraced run")


class LayerTimers:
    """Self and inclusive wall time per layer, plus bytes the codec produced."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.count: Dict[str, int] = defaultdict(int)
        #: Bytes returned by every encode call (the codec's output).
        self.encoded_bytes = 0
        self._children = [0]
        self._active: Dict[str, int] = defaultdict(int)

    def wrap(self, layer: str, function: Callable) -> Callable:
        """``function`` timed as part of ``layer``."""
        children = self._children
        active = self._active
        self_ns, total_ns, count = self.self_ns, self.total_ns, self.count
        outermost_only = layer in _OUTERMOST_ONLY
        counts_bytes = layer == "codec.encode"
        timers = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            if outermost_only and active[layer]:
                return function(*args, **kwargs)
            active[layer] += 1
            children.append(0)
            start = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                covered = children.pop()
                active[layer] -= 1
                self_ns[layer] += elapsed - covered
                total_ns[layer] += elapsed
                count[layer] += 1
                children[-1] += elapsed
            if counts_bytes:
                timers.encoded_bytes += len(result)
            return result

        timed.__name__ = getattr(function, "__name__", layer)
        setattr(timed, MARKER, layer)
        return timed

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS`, the network's handler
        registration and every proxy class generated from now on."""
        for owner, name, layer in TARGETS:
            setattr(owner, name, self.wrap(layer, _ORIGINALS[(owner, name)]))
        register = _ORIGINALS[(SimulatedNetwork, "register")]
        dispatch = self.wrap

        def register_timed(network: Any, node_id: str, handler: Callable) -> None:
            register(network, node_id, dispatch("address_space.dispatch", handler))

        setattr(register_timed, MARKER, "address_space.dispatch")
        SimulatedNetwork.register = register_timed
        timed_transform = ApplicationTransformer.transform
        wrap_proxies = self._wrap_proxies

        def transform_and_wrap(transformer: Any, classes: Any) -> Any:
            application = timed_transform(transformer, classes)
            wrap_proxies(application)
            return application

        setattr(transform_and_wrap, MARKER, "core.transform")
        ApplicationTransformer.transform = transform_and_wrap

    def _wrap_proxies(self, application: Any) -> None:
        """Time every generated proxy method of a freshly transformed application."""
        for class_name in application.transformed_classes():
            artifacts = application.artifacts(class_name)
            for proxy in (*artifacts.instance_proxies.values(), *artifacts.class_proxies.values()):
                for name, member in list(vars(proxy).items()):
                    if name.startswith("_") or name in ("bind", "remote_reference"):
                        continue
                    if callable(member) and not hasattr(member, MARKER):
                        setattr(proxy, name, self.wrap("core.proxy", member))

    def uninstall(self) -> None:
        """Put every original function back."""
        for (owner, name), original in _ORIGINALS.items():
            setattr(owner, name, original)

    def self_us(self, layer: str, per: int) -> float:
        """Self time of ``layer`` in microseconds per ``per`` units of work."""
        return self.self_ns.get(layer, 0) / 1000.0 / per if per else 0.0

    def mean_ms(self, layer: str) -> float:
        """Inclusive time of one call into ``layer``, in milliseconds."""
        calls = self.count.get(layer, 0)
        return self.total_ns.get(layer, 0) / 1e6 / calls if calls else 0.0

    def covered_ns(self) -> int:
        """Wall time attributed to any layer (the sum of all self times)."""
        return sum(self.self_ns.values())

