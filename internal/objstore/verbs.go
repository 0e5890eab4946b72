package objstore

// Verb names one of the six Store methods.
type Verb uint8

// The verb set, in the order the Store interface declares it.
const (
	VerbPut Verb = iota
	VerbGet
	VerbGetRange
	VerbDelete
	VerbList
	VerbHead
	numVerbs
)

var verbNames = [numVerbs]string{"put", "get", "getrange", "delete", "list", "head"}

// String is the verb as error messages and counter names spell it.
func (v Verb) String() string { return verbNames[v] }

// Op is one store request: the verb and the arguments it takes.
type Op struct {
	Verb   Verb
	Key    string // List's prefix
	Off, N int64  // GetRange
	Data   []byte // Put
}

// Result is what a request answers besides its error.
type Result struct {
	Data []byte   // Get, GetRange
	Keys []string // List
	Size int64    // Head
}

// Verbs makes a Store of one round-trip function. A wrapper embeds it, sets
// it once to its own round-trip method, and so writes what it does to a
// request once for all six verbs. Op and Result travel by value: a verb
// through a wrapper allocates nothing.
type Verbs func(Op) (Result, error)

// Put implements Store.
func (v Verbs) Put(key string, data []byte) error {
	_, err := v(Op{Verb: VerbPut, Key: key, Data: data})
	return err
}

// Get implements Store.
func (v Verbs) Get(key string) ([]byte, error) {
	r, err := v(Op{Verb: VerbGet, Key: key})
	return r.Data, err
}

// GetRange implements Store.
func (v Verbs) GetRange(key string, off, n int64) ([]byte, error) {
	r, err := v(Op{Verb: VerbGetRange, Key: key, Off: off, N: n})
	return r.Data, err
}

// Delete implements Store.
func (v Verbs) Delete(key string) error {
	_, err := v(Op{Verb: VerbDelete, Key: key})
	return err
}

// List implements Store.
func (v Verbs) List(prefix string) ([]string, error) {
	r, err := v(Op{Verb: VerbList, Key: prefix})
	return r.Keys, err
}

// Head implements Store.
func (v Verbs) Head(key string) (int64, error) {
	r, err := v(Op{Verb: VerbHead, Key: key})
	return r.Size, err
}

// Do plays op against s: what a wrapper's round trip calls on the store
// under it.
func Do(s Store, op Op) (r Result, err error) {
	switch op.Verb {
	case VerbPut:
		err = s.Put(op.Key, op.Data)
	case VerbGet:
		r.Data, err = s.Get(op.Key)
	case VerbGetRange:
		r.Data, err = s.GetRange(op.Key, op.Off, op.N)
	case VerbDelete:
		err = s.Delete(op.Key)
	case VerbList:
		r.Keys, err = s.List(op.Key)
	case VerbHead:
		r.Size, err = s.Head(op.Key)
	}
	return r, err
}
