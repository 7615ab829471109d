package sqljson

import (
	"strings"
	"sync"
)

// sym is an interned attribute key: two syms are equal exactly when their
// strings are, and comparing them compares one pointer. The zero sym
// stands for no key.
type sym struct{ p *string }

func (s sym) Value() string { return *s.p }

// syms holds every key a document has held at its top level. The keys of a
// graph are its schema, so the table stays as small as the set of
// attribute names; it never forgets one.
var syms = struct {
	sync.Mutex
	m map[string]sym
}{m: map[string]sym{}}

func intern(s string) sym {
	syms.Lock()
	defer syms.Unlock()
	k, ok := syms.m[s]
	if !ok {
		key := strings.Clone(s)
		k = sym{&key}
		syms.m[key] = k
	}
	return k
}

// lookup is intern for a key that is only read: it adds nothing and
// returns the zero sym when no document has held s.
func lookup(s string) sym {
	syms.Lock()
	defer syms.Unlock()
	return syms.m[s]
}
