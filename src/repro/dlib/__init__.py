"""Distributed Library (dlib) — the paper's RPC substrate.

Section 4: dlib is "a high level interface to network services based on
the remote procedure call (RPC) model", distinguished from plain RPC by a
*persistent* server context: "the dlib server process is designed to be
capable of storing state information which persists from call to call, as
well as allocating memory for data storage and manipulation...  dlib more
closely resembles the extension of the process environment to include the
server process."

Originally one-client/one-server, the windtunnel's dlib "was modified to
accept more than one connection.  Each connection is selected for service
by the server process in the sequence that the dlib calls are received.
The dlib calls are executed by the server in a single process environment
as though there were only one client" — the property that makes
first-come-first-served conflict resolution trivial (section 5.1).

This package implements all of that: a typed binary wire protocol (fast
NumPy array payloads, no pickle), a select-loop server that executes calls
strictly serially in arrival order, client-side stubs, and remote memory
segments.
"""

from repro.dlib.protocol import (
    DlibError,
    DlibProtocolError,
    DlibTimeoutError,
    MessageKind,
    PreEncoded,
    ServerShutdownError,
    decode_message,
    decode_path_entry,
    decode_value,
    dequantize_points,
    encode_message,
    encode_value,
    pack_q16,
    quantization_error_bound,
    quantize_points,
    requantize_points,
    unpack_q16,
)
from repro.dlib.transport import Stream, connect_tcp, pipe_pair
from repro.dlib.server import Deferred, DlibServer, ServerContext
from repro.dlib.client import DlibClient, DlibRemoteError, RetryPolicy
from repro.dlib.memory import MemoryManager, SegmentHandle

__all__ = [
    "DlibError",
    "DlibProtocolError",
    "DlibTimeoutError",
    "ServerShutdownError",
    "MessageKind",
    "PreEncoded",
    "encode_value",
    "decode_value",
    "encode_message",
    "decode_message",
    "decode_path_entry",
    "quantize_points",
    "dequantize_points",
    "quantization_error_bound",
    "requantize_points",
    "pack_q16",
    "unpack_q16",
    "Stream",
    "connect_tcp",
    "pipe_pair",
    "DlibServer",
    "ServerContext",
    "Deferred",
    "DlibClient",
    "DlibRemoteError",
    "RetryPolicy",
    "MemoryManager",
    "SegmentHandle",
]
