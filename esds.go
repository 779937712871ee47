// Package esds is an eventually-serializable data service: a replicated
// data object that trades immediate consistency for availability and
// latency while guaranteeing that all operations are eventually serialized
// in a single total order, following Fekete, Gupta, Luchangco, Lynch, and
// Shvartsman, "Eventually-Serializable Data Services" (PODC '96; TCS 220,
// 1999).
//
// # Model
//
// Clients submit operations on an arbitrary serial data type. Each
// operation carries:
//
//   - a prev set: identifiers of earlier operations that must precede it in
//     the eventual order (the client-specified constraints), and
//   - a strict flag: a strict operation is answered only once its position
//     in the eventual total order is fixed — its response is never
//     invalidated. Non-strict operations are answered immediately from a
//     replica's current view and may be reordered afterwards.
//
// The service keeps a full replica of the object at every node. Replicas
// assign totally-ordered labels to operations and reconcile them through
// background gossip (lazy replication); the system-wide minimum label per
// operation defines the eventual total order.
//
// # Quick start
//
//	service, _ := esds.New(esds.Config{Replicas: 3, DataType: esds.Counter()})
//	defer service.Close()
//	client := service.Client("alice")
//	client.Apply(esds.Add(5))                         // non-strict write
//	v, _, _ := client.ApplyStrict(esds.ReadCounter()) // serialized read
//
// With Config.Shards ≥ 2 the same constructor starts a sharded service: a
// namespace of independent named objects partitioned across that many
// clusters by consistent hash, with the replicas executed by the
// shard-per-core worker runtime (DESIGN.md §9) and grown online via Resize:
//
//	service, _ := esds.New(esds.Config{Shards: 4, Replicas: 3, DataType: esds.Counter()})
//	defer service.Close()
//	cart := service.Object("cart:42").Client("alice")
//	cart.Apply(esds.Add(5))
//	v, _, _ := cart.ApplyStrict(esds.ReadCounter())
//
// Per-client sessions provide causal chaining (read-your-writes) by
// threading each operation's id into the next one's prev set; see
// Session. Every Apply variant has a context-first form (ApplyCtx) whose
// cancellation unblocks the caller.
package esds

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/ops"
	"esds/internal/transport"
)

// DataType describes the serial behaviour of the replicated object: an
// initial state and a transition function Apply(state, op) → (state, value).
// Apply must be deterministic and must not mutate its input state.
// Implementations for common objects are in this package (Counter,
// Register, Set, Directory, Log, Bank).
type DataType = dtype.DataType

// Operator is an operation of the data type.
type Operator = dtype.Operator

// Value is a reportable value returned by an operation.
type Value = dtype.Value

// ID identifies a submitted operation; use it in prev sets to constrain
// ordering.
type ID = ops.ID

// Config assembles a Service. Everything it does not name is the shipped
// configuration, one table in internal/core that esds-server and the
// benchmark share: §10.1 memoization and §10.2 pruning, front-end
// retransmission every 250ms (the paper's §6.2 liveness mechanism), and on
// a sharded service the batched hot path (DESIGN.md §8) and a
// shard-per-core worker pool sized from GOMAXPROCS (DESIGN.md §9).
type Config struct {
	// Replicas is the number of data replicas (≥ 1; the paper's algorithm
	// targets ≥ 2). With Shards ≥ 2 it is the replica count per shard.
	Replicas int
	// DataType is the replicated object's serial type.
	DataType DataType
	// Shards partitions an object namespace across this many independent
	// clusters by consistent hash. 0 or 1 starts the unsharded single-object
	// service (use Client); ≥ 2 starts a sharded multi-object service (use
	// Object, Resize, ShardOf). All of the paper's guarantees hold within
	// one object; constraints cannot span objects on different shards.
	Shards int
	// GossipInterval is the anti-entropy period (the paper's g). Default:
	// 5ms.
	GossipInterval time.Duration
}

// ErrClosed is returned by operations submitted to a closed Service and
// delivered to operations still pending when Close runs.
var ErrClosed = core.ErrClosed

// Service is a running eventually-serializable data service over the
// in-process transport: unsharded (one replicated object, see Client) or
// sharded (a namespace of named objects, see Object), selected by
// Config.Shards. For simulated deployments with controlled timing and fault
// injection, use the internal packages directly (see DESIGN.md).
type Service struct {
	net       *transport.LiveNet
	cluster   *core.Cluster      // unsharded mode
	ks        *core.Keyspace     // sharded mode
	rt        *core.ShardRuntime // sharded mode
	replicas  int
	closeOnce sync.Once
}

// New starts a service: replicas, gossip, and transport — one cluster when
// Config.Shards ≤ 1, a sharded keyspace on the shard-per-core runtime when
// Config.Shards ≥ 2.
func New(cfg Config) (*Service, error) {
	opt, gossip, err := configure(cfg)
	if err != nil {
		return nil, err
	}
	s := &Service{net: transport.NewLiveNet(), replicas: cfg.Replicas}
	var c interface {
		StartLiveGossip(time.Duration)
		StartLiveRetransmit(time.Duration)
		StartLiveBatchFlush(time.Duration)
	}
	if cfg.Shards < 2 {
		s.cluster = core.NewCluster(core.ClusterConfig{
			Replicas: cfg.Replicas,
			DataType: cfg.DataType,
			Network:  s.net,
			Options:  opt,
		})
		c = s.cluster
	} else {
		s.rt = core.NewShardRuntime(0)
		s.ks = core.NewKeyspace(core.KeyspaceConfig{
			Shards:   cfg.Shards,
			Replicas: cfg.Replicas,
			DataType: cfg.DataType,
			Network:  s.net,
			Options:  opt,
			Runtime:  s.rt,
		})
		c = s.ks
	}
	c.StartLiveGossip(gossip)
	c.StartLiveRetransmit(core.RetransmitInterval)
	if opt.BatchSize > 1 {
		c.StartLiveBatchFlush(opt.FlushPeriod())
	}
	return s, nil
}

// configure validates cfg and returns the shipped options and gossip
// period New runs for its shape: an unsharded cluster runs unbatched (the
// paper's shape, one frame per message), a sharded keyspace the batched
// hot path.
func configure(cfg Config) (core.Options, time.Duration, error) {
	if cfg.Shards < 0 {
		return core.Options{}, 0, fmt.Errorf("esds: invalid shard count %d", cfg.Shards)
	}
	if cfg.Replicas < 1 || cfg.Replicas > core.MaxReplicas {
		return core.Options{}, 0, fmt.Errorf("esds: invalid replica count %d (1 to %d)", cfg.Replicas, core.MaxReplicas)
	}
	if cfg.DataType == nil {
		return core.Options{}, 0, errors.New("esds: nil data type")
	}
	if cfg.GossipInterval < 0 {
		return core.Options{}, 0, fmt.Errorf("esds: negative gossip interval %v", cfg.GossipInterval)
	}
	opt := core.DefaultOptions()
	if cfg.Shards >= 2 {
		opt = core.BatchedOptions()
	}
	return opt, cmp.Or(cfg.GossipInterval, core.GossipInterval), nil
}

// Close stops gossip, fails every operation still awaiting a response with
// ErrClosed (blocked Apply calls return, ApplyAsync callbacks fire with
// Response.Err set), shuts the transport down, and — on a sharded service —
// stops the worker runtime after the transport can deliver nothing more.
// Close is idempotent and safe for concurrent use.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		if s.cluster != nil {
			s.cluster.Close()
		}
		if s.ks != nil {
			s.ks.Close()
		}
		s.net.Close()
		if s.rt != nil {
			s.rt.Close()
		}
	})
}

// Replicas returns the replica count (per shard, when sharded).
func (s *Service) Replicas() int { return s.replicas }

// Workers returns the size of the shard-per-core worker pool, or 0 when the
// service runs without one (unsharded).
func (s *Service) Workers() int {
	if s.rt == nil {
		return 0
	}
	return s.rt.Workers()
}

// Metrics returns operation counters aggregated over every replica (of
// every shard, when sharded).
func (s *Service) Metrics() core.ReplicaMetrics {
	if s.ks != nil {
		return s.ks.TotalMetrics()
	}
	return s.cluster.TotalMetrics()
}

// Faults returns the typed faults recorded by the service's replicas:
// inputs rejected because accepting them would violate an algorithm
// invariant (corrupted or hostile messages). A healthy deployment keeps
// this empty; operators should alert on growth (see also
// Metrics().Faults, which keeps counting past the bounded log).
func (s *Service) Faults() []error {
	if s.ks != nil {
		return s.ks.Faults()
	}
	return s.cluster.Faults()
}

// Client returns a handle for the named client of an unsharded service.
// Each client name owns an independent identifier space; calling Client
// twice with the same name returns handles backed by the same front end.
// On a sharded service Client panics — a sharded namespace has no single
// object to address; use Object(name).Client(client).
func (s *Service) Client(name string) *Client {
	if s.cluster == nil {
		panic("esds: Client is for unsharded services (Config.Shards ≤ 1); use Object(name).Client(client)")
	}
	return &Client{fe: s.cluster.FrontEnd(name)}
}

// Object returns a handle on the named object of a sharded service, routed
// to its shard; two handles with the same name address the same replicated
// object. On an unsharded service Object panics — there is only one object;
// use Client(name).
func (s *Service) Object(name string) *Object {
	if s.ks == nil {
		panic("esds: Object is for sharded services (Config.Shards ≥ 2); use Client(name)")
	}
	return &Object{ks: s.ks, name: name, shard: s.ks.ShardOf(name)}
}

// keyspace returns the sharded backend or panics with the operation name —
// the shared guard of the sharded-only Service surface.
func (s *Service) keyspace(method string) *core.Keyspace {
	if s.ks == nil {
		panic("esds: " + method + " is for sharded services (Config.Shards ≥ 2)")
	}
	return s.ks
}

// NumShards returns the shard count of a sharded service.
func (s *Service) NumShards() int { return s.keyspace("NumShards").NumShards() }

// ShardOf reports which shard serves the named object of a sharded service.
func (s *Service) ShardOf(object string) int { return s.keyspace("ShardOf").ShardOf(object) }

// Resize grows a sharded service from N to M=newShards shards ONLINE: new
// shard clusters join the running service (pinned to their worker by the
// same ring that routes objects) and exactly the keys the grown
// consistent-hash ring reassigns (≈ (M−N)/M of the namespace) are migrated,
// with zero downtime and no lost or reordered operations. Traffic keeps
// flowing during the migration: operations on unmoving objects are
// untouched; operations on moving objects either complete at the old shard
// (if it accepted them before the freeze) or are replayed at the new one
// exactly once. Clients obtained via Object.Client follow the move
// automatically.
//
// Resize requires a snapshottable data type (all built-ins are). Only one resize may run at a time; a failed resize
// (e.g. timeout) leaves the service consistent and is retryable with the
// same target. See DESIGN.md §7 for the protocol.
func (s *Service) Resize(newShards int) (*core.ResizeReport, error) {
	return s.keyspace("Resize").Resize(newShards)
}

// Epoch returns the number of completed resizes of a sharded service.
func (s *Service) Epoch() int { return s.keyspace("Epoch").Epoch() }

// MigrationMetrics returns the live-resharding counters of a sharded
// service.
func (s *Service) MigrationMetrics() core.MigrationMetrics {
	return s.keyspace("MigrationMetrics").MigrationMetrics()
}

// ShardMetrics returns the counters of one shard of a sharded service.
func (s *Service) ShardMetrics(shard int) core.ReplicaMetrics {
	return s.keyspace("ShardMetrics").Shard(shard).TotalMetrics()
}

// Client submits operations on behalf of one named client. A Client from
// Service.Client addresses the service's single object through its front
// end; a Client from Object.Client addresses one named object of a sharded
// service through the keyspace router (wrap routes each operator to that
// object, and the router follows the object across live resizes).
type Client struct {
	fe   core.Submitter
	wrap func(Operator) Operator // nil for single-object services
}

// Response is a completed operation. Err is non-nil when the service was
// closed before a response arrived (the operation's outcome is unknown);
// Value is then meaningless.
type Response struct {
	ID    ID
	Value Value
	Err   error
}

func (c *Client) op(op Operator) Operator {
	if c.wrap != nil {
		return c.wrap(op)
	}
	return op
}

// ApplyCtx is the context-first submission call every other Apply variant
// wraps: it submits an operation constrained to follow every operation in
// prev (the paper's client-specified constraints; none is fine) and waits
// until the response arrives or ctx is done. On cancellation the waiter is
// withdrawn — the retransmission ticker stops re-sending the operation —
// and ctx.Err() is returned; the operation may nevertheless enter the
// eventual total order if a replica accepted it first, so cancellation
// bounds the WAIT, not the effect. A response that beats the cancellation
// is returned normally. Every id in prev must come from this client's
// object (constraints cannot span shards: an id from another shard's order
// never becomes done here, so the operation would never complete).
func (c *Client) ApplyCtx(ctx context.Context, op Operator, strict bool, prev ...ID) (Value, ID, error) {
	x, v, err := c.fe.SubmitWaitCtx(ctx, c.op(op), prev, strict)
	return v, x.ID, err
}

// Apply submits a non-strict operation with no ordering constraints and
// waits for the response. The returned value reflects some subset of
// previously requested operations and may be reordered later; use
// ApplyStrict or prev constraints for stronger guarantees. A non-nil error
// (ErrClosed) means the service was closed before a response arrived.
func (c *Client) Apply(op Operator) (Value, ID, error) {
	return c.ApplyCtx(context.Background(), op, false)
}

// ApplyStrict submits a strict operation: the response is computed at its
// final position in the eventual total order and will never be
// invalidated.
func (c *Client) ApplyStrict(op Operator) (Value, ID, error) {
	return c.ApplyCtx(context.Background(), op, true)
}

// ApplyAfter submits an operation constrained to follow every operation in
// prev — ApplyCtx without the cancellation (see there for the prev
// contract).
func (c *Client) ApplyAfter(op Operator, strict bool, prev ...ID) (Value, ID, error) {
	return c.ApplyCtx(context.Background(), op, strict, prev...)
}

// ApplyAsync submits without waiting; cb fires exactly once — when the
// response arrives, or with Response.Err set if the service is closed
// first. It returns the operation's id immediately.
func (c *Client) ApplyAsync(op Operator, strict bool, prev []ID, cb func(Response)) ID {
	var wrapped func(core.Response)
	if cb != nil {
		wrapped = func(r core.Response) { cb(Response{ID: r.ID, Value: r.Value, Err: r.Err}) }
	}
	x := c.fe.Submit(c.op(op), prev, strict, wrapped)
	return x.ID
}

// Session returns a causal session: every operation is ordered after the
// session's previous operation, giving read-your-writes and monotonic
// views without strictness.
func (c *Client) Session() *Session { return &Session{client: c} }

// Session chains operations causally (§1.2's causality constraints,
// expressed through prev sets).
type Session struct {
	client *Client
	last   *ID
}

// Apply submits an operation ordered after the session's previous one.
func (s *Session) Apply(op Operator) (Value, ID, error) {
	return s.ApplyCtx(context.Background(), op, false)
}

// ApplyStrict submits a strict operation ordered after the session's
// previous one.
func (s *Session) ApplyStrict(op Operator) (Value, ID, error) {
	return s.ApplyCtx(context.Background(), op, true)
}

// ApplyCtx submits an operation ordered after the session's previous one,
// waiting no longer than ctx allows (see Client.ApplyCtx for cancellation
// semantics). A cancelled operation does not advance the session chain:
// its outcome is unknown, so chaining on it could park every later
// operation behind an effect that never happens.
func (s *Session) ApplyCtx(ctx context.Context, op Operator, strict bool) (Value, ID, error) {
	var prev []ID
	if s.last != nil {
		prev = []ID{*s.last}
	}
	v, id, err := s.client.ApplyCtx(ctx, op, strict, prev...)
	if err == nil {
		s.last = &id
	}
	return v, id, err
}

// Last returns the id of the session's most recent operation.
func (s *Session) Last() (ID, bool) {
	if s.last == nil {
		return ID{}, false
	}
	return *s.last, true
}
