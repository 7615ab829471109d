package sqljson

import (
	"strings"
	"sync"
	"sync/atomic"
)

// sym is an interned attribute key: a record stores it as a uint32, and
// two syms are equal exactly when their strings are. The zero sym stands
// for no key (an array element's entry, or a compiled JSON_VAL key no
// document held when it was compiled).
type sym uint32

// name returns the key's string. It takes no lock: a sym is only handed
// out after its name is published.
func (k sym) name() string { return (*syms.names.Load())[k] }

// syms holds every key a document has held. The keys of a graph are its
// schema, so the table stays as small as the set of attribute names; it
// never forgets one. names is append-only: a new key is written past the
// length every published slice has, then a slice covering it is
// published, so readers index without the lock.
var syms = struct {
	sync.Mutex
	m     map[string]sym
	names atomic.Pointer[[]string] // by sym; names[0] is the zero sym's ""
}{m: map[string]sym{}}

func init() {
	names := []string{""}
	syms.names.Store(&names)
}

// internLocked returns s's sym, adding it if no document has held s. The
// caller holds syms.
func internLocked(s string) sym {
	if k, ok := syms.m[s]; ok {
		return k
	}
	names := *syms.names.Load()
	k := sym(len(names))
	key := strings.Clone(s)
	names = append(names, key)
	syms.names.Store(&names)
	syms.m[key] = k
	return k
}

// internMembers sets the sym of each member's key, under one lock.
func internMembers(ms []member) {
	syms.Lock()
	defer syms.Unlock()
	for i := range ms {
		ms[i].sym = internLocked(ms[i].key)
	}
}

// lookup returns s's sym without adding it: the zero sym when no document
// has held s.
func lookup(s string) sym {
	syms.Lock()
	defer syms.Unlock()
	return syms.m[s]
}
