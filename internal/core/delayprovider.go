package core

// Pluggable client↔server delay storage (DESIGN.md §13). The dense k×m CS
// matrix is the memory wall between 100k clients and the million-user
// target: at 1M clients × 100 servers it costs ~800 MB, and every
// server-dimension mutation walks all of it. A DelayProvider replaces the
// mandatory dense rows with an interface the whole engine reads through —
// Problem.Delays non-nil routes every CS access to the provider, nil keeps
// the raw matrix. Only Problem's CS* methods (problem.go) know which of the
// two is held; the raw rows are the one dense path — there is no provider
// wrapping them — and the oracle every provider is proven against (see
// provider_oracle_test.go and FuzzDelayProvider).
//
// Contract, shared by all implementations:
//
//   - Indices are the engine's dense indices: clients and servers are
//     swap-removed and renumbered exactly like Evaluator.RemoveClient /
//     RemoveServer, and the provider mirrors those renumberings through
//     SwapRemoveClient / SwapRemoveServer.
//   - Reads (ClientServer, Row) are safe to run concurrently with each
//     other as long as each call uses its own dst buffer; mutations demand
//     exclusive access, like every Evaluator mutation.
//   - Writes copy their inputs; callers keep ownership of the slices they
//     pass in.
//   - NaN delay entries handed to a mutation mean "unmeasured": the
//     provider resolves them to its own default — the coordinate provider
//     falls back to its prediction, the shared-row provider (like the raw
//     matrix) stores UnmeasuredDelayMs. Non-NaN entries are stored
//     verbatim, which is what makes a provider with full measured coverage
//     bit-identical to the dense matrix.
type DelayProvider interface {
	// NumClients returns the current client count.
	NumClients() int
	// NumServers returns the current server count.
	NumServers() int
	// ClientServer returns the delay between client j and server i in
	// milliseconds — the provider-backed CS[j][i].
	ClientServer(j, i int) float64
	// Row materializes client j's full delay row into dst (len NumServers)
	// and returns it. Implementations backed by real rows may return an
	// internal slice instead of filling dst; treat the result as read-only
	// and valid only until the next mutation.
	Row(j int, dst []float64) []float64
	// SetClientDelays replaces client j's entire delay row — the
	// DelayUpdate measurement-refresh hook.
	SetClientDelays(j int, row []float64)
	// SetClientServerDelay overlays one measured delay for client j and
	// server i.
	SetClientServerDelay(j, i int, d float64)
	// AppendClient adds a new client with the given delay row (len
	// NumServers) at index NumClients.
	AppendClient(row []float64)
	// SwapRemoveClient removes client j, renumbering the last client to j.
	SwapRemoveClient(j int)
	// AppendServer adds a new server column at index NumServers. col is
	// either nil — every client unmeasured — or one entry per client,
	// NaN meaning unmeasured.
	AppendServer(col []float64)
	// SwapRemoveServer removes server column i, renumbering the last
	// server's column to i.
	SwapRemoveServer(i int)
	// Clone returns a deep copy sharing no mutable state.
	Clone() DelayProvider
	// MemoryBytes estimates the provider's resident size — the number the
	// memory-budget regression test asserts on.
	MemoryBytes() int
	// State returns a serializable snapshot of the provider's full
	// internal state; NewProviderFromState(State()) reconstructs a
	// provider whose every future read and mutation is bit-identical, the
	// property durable-session recovery leans on.
	State() *ProviderState
}

// UnmeasuredDelayMs is the sentinel stored for unmeasured client↔server
// pairs: far beyond any plausible bound, so placement avoids unmeasured
// servers until a real measurement streams in. The public layer's
// UnmeasuredRTTMs re-exports it.
const UnmeasuredDelayMs = 1e6

// resolveUnmeasured returns d with NaN mapped to UnmeasuredDelayMs.
func resolveUnmeasured(d float64) float64 {
	if d != d { // NaN
		return UnmeasuredDelayMs
	}
	return d
}
