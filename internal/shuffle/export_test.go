package shuffle

import "reflect"

// FoldBytes exposes foldBytes to the package's external tests.
const FoldBytes = foldBytes

// Compactions reports how many times s compacted its fold arena.
func Compactions(s *Sorter) int { return s.compactions }

// HashFormTypes are the element types the hash form keeps from one Add
// to the next: a group, a pending value and a table slot.
var HashFormTypes = []reflect.Type{
	reflect.TypeFor[hashGroup](),
	reflect.TypeFor[pendingValue](),
	reflect.TypeOf(Sorter{}.table).Elem(),
}
