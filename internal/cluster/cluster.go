// Package cluster turns single-process rcnvm-serve nodes into a
// replicated serving set: one primary taking writes, N read replicas
// converging on its state by streaming the primary's WAL, and a routing
// front end that speaks the existing NDJSON/HTTP protocols unchanged —
// clients point at the router and never learn the topology.
//
// The moving parts, each in its own file:
//
//   - follower.go: the replica-side shipping loop. It bootstraps from the
//     primary's current checkpoint (or empty at epoch 1), tails every
//     shard's WAL over /wal/read, and applies records through
//     durable.Apply — the exact code path crash recovery replays — so a
//     replica's engine state is byte-identical to what the primary would
//     rebuild after a crash. The deterministic engine makes convergence
//     checkable with a hash compare (/checksum).
//   - health.go: replica health tracking. Probes /readyz with a deadline;
//     consecutive failures eject a node, ejected nodes re-admit after a
//     backoff once probes succeed again, and forward failures eject
//     immediately (the request already proved the node dead).
//   - router.go: the forwarding session behind server.Frontend. Writes go
//     to the primary, and a dead primary fails fast with the retryable
//     primary_unavailable. Reads round-robin across healthy replicas and
//     fail over transparently on replica death; the primary is the
//     fallback of last resort, so reads survive every replica dying.
//
// Failure semantics are typed, not implied: a write that never reached
// the primary is primary_unavailable (retryable — nothing executed); a
// write whose session broke mid-exchange is unknown_state (not retryable
// — some prefix may have committed); a read failure is invisible as long
// as any backend is healthy.
package cluster

import (
	"fmt"
	"strings"
)

// Backend names one serving node by its two addresses: the NDJSON TCP
// front end statements are forwarded to, and the HTTP front end used for
// health probes, WAL shipping, and checksums. The wire spec is
// "tcpHost:port@httpHost:port".
type Backend struct {
	TCP  string
	HTTP string
}

// ParseBackend parses one "tcp@http" spec.
func ParseBackend(spec string) (Backend, error) {
	tcp, http, ok := strings.Cut(spec, "@")
	if !ok || tcp == "" || http == "" {
		return Backend{}, fmt.Errorf("cluster: backend spec %q is not tcpAddr@httpAddr", spec)
	}
	return Backend{TCP: tcp, HTTP: http}, nil
}

// ParseBackends parses a comma-separated list of "tcp@http" specs.
func ParseBackends(specs string) ([]Backend, error) {
	if strings.TrimSpace(specs) == "" {
		return nil, nil
	}
	var out []Backend
	for _, spec := range strings.Split(specs, ",") {
		b, err := ParseBackend(strings.TrimSpace(spec))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func (b Backend) String() string { return b.TCP + "@" + b.HTTP }
