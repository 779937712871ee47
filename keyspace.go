package esds

import "esds/internal/core"

// Object is one named object of a sharded Service.
type Object struct {
	ks    *core.Keyspace
	name  string
	shard int
}

// Name returns the object's name.
func (o *Object) Name() string { return o.name }

// Shard returns the shard serving this object.
func (o *Object) Shard() int { return o.shard }

// Client returns a handle submitting operations on this object for the
// named client. The same client name may drive many objects; ids chain in
// prev sets only among objects on the same shard (Session stays within one
// object and is always safe). The handle is resize-aware: it is backed by
// the keyspace router, which follows an object when Resize migrates it to
// another shard.
func (o *Object) Client(name string) *Client {
	return &Client{
		fe:   o.ks.Client(name),
		wrap: func(op Operator) Operator { return o.ks.WrapOp(o.name, op) },
	}
}
