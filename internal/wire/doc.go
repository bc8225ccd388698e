// Package wire is the hand-rolled JSON codec under the actord serving fast
// path. encoding/json is correct but pays reflection, per-call encoder
// state and interface boxing on every request; at serving rates those
// costs dominate the handler. This package replaces them with two small,
// allocation-free building blocks that pkg/actor composes into per-type
// codecs:
//
//   - Emitter: append-style JSON writing into a pooled buffer, producing
//     output byte-identical to a json.Encoder configured with
//     SetIndent("", " ") and default HTML escaping — the exact
//     configuration the server has always used — including Go's
//     shortest-round-trip float formatting and its exponent cleanup. It
//     encodes only the hot bodies, the ones paid per request: the
//     /v1/predict, /v1/sweep and /v1/eval replies. The bodies off that
//     path (/v1/bank, health and readiness, errors, the recalibration
//     admin replies) go through encoding/json itself, so the Emitter
//     writes strings, floats, booleans, null and structure, and no
//     integers.
//   - Scanner: an iterative, pull-based reader over a fully-read body:
//     RFC 8259 structure and numbers, strings decoded exactly as
//     encoding/json decodes them (U+FFFD replacement of invalid UTF-8,
//     surrogate pairing). It is the only request decoder: what it
//     rejects, the server rejects.
//
// Byte-identity of the Emitter and string/number parity of the Scanner are
// not aspirations, they are the contract: this package's and pkg/actor's
// property and fuzz tests compare both against encoding/json. The request
// grammar built on the Scanner — exact keys, no duplicates, no nulls —
// lives in pkg/actor/codec.go and is specified in docs/SERVING.md.
package wire
