/**
 * @file
 * Request-scoped trace context for the swccd telemetry plane.
 *
 * A TraceContext is minted on the connection thread when a request is
 * decoded and rides with the query through the protocol structs, the
 * MPMC submission queue, and the batching worker. The trace id keys
 * every cross-thread correlation for that request: the flow arrows
 * and async queue intervals in the Chrome/Perfetto trace.
 */

#ifndef SWCC_SERVICE_TRACE_CONTEXT_HH
#define SWCC_SERVICE_TRACE_CONTEXT_HH

#include <cstdint>

namespace swcc::service
{

struct TraceContext
{
    /** Process-unique request id; 0 means "not traced". */
    std::uint64_t traceId = 0;
    /** Span ordinal within the request (decode=1, queue=2, ...). */
    std::uint64_t spanId = 0;

    bool valid() const { return traceId != 0; }
};

} // namespace swcc::service

#endif // SWCC_SERVICE_TRACE_CONTEXT_HH
