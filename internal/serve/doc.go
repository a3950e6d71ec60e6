// Package serve is the simulation-as-a-service HTTP subsystem: a
// stdlib-only JSON API over the public otem facade, so fleet-scale studies
// can evaluate many vehicle scenarios against a shared deployment instead
// of linking the module and running locally.
//
// Endpoints:
//
//	POST /v1/simulate        one run (method × cycle × repeats × ucap)
//	POST /v1/batch           a grid of runs on the bounded worker pool
//	GET  /v1/simulate/stream one traced run streamed as NDJSON steps
//	POST /v1/fleet           one Monte Carlo fleet run (otem.fleet/v1)
//	GET  /v1/fleet/stream    a fleet run as NDJSON progress lines + summary
//	POST /v1/plan            the outer route plan of the two-layer MPC
//	GET  /healthz            liveness plus inflight/queued gauges
//	GET  /metrics            Prometheus text exposition (hand-written)
//
// The production plumbing, in the order a request meets it:
//
//   - request-scoped context: every handler works under the client's
//     context bounded by Config.RequestTimeout, so disconnects and
//     deadlines abandon the simulation mid-route (otem.ErrCanceled);
//   - panic isolation: a recovery middleware converts handler panics into
//     500s, and the simulation itself runs under internal/runner's
//     recover, so one poisoned request never kills the process;
//   - result cache: simulations are deterministic by construction (the
//     detflow analyzer enforces it), so responses are cached under a
//     canonical encoding of the request — identical requests are served
//     from memory, and identical in-flight requests are coalesced
//     singleflight-style onto one computation. Every endpoint but
//     /v1/batch runs one pipeline, cached: cache → admission → worker
//     pool → per-endpoint outcome count;
//   - admission control: cache misses must win an execution slot
//     (Config.MaxInflight) or a bounded queue seat (Config.MaxQueue);
//     beyond that the server sheds load with 429 + Retry-After instead of
//     collapsing;
//   - metrics: one record per endpoint (status codes, latency histogram,
//     inflight gauge, cache outcome counts) plus the admission counters,
//     exposed in Prometheus text format;
//   - graceful drain: Server.Run serves and watches its context on the
//     bounded worker pool; cancellation (SIGTERM in cmd/otem-serve) stops
//     accepting and drains in-flight requests for Config.DrainTimeout.
//
// The package deliberately has no dependencies outside the standard
// library and this module.
package serve
