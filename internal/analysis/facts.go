package analysis

import (
	"go/token"
	"go/types"
	"reflect"
)

// Cross-package facts. A Fact is a typed annotation an analyzer attaches
// to a package-level object (function, method, var) while analyzing the
// object's package, and reads back while analyzing any downstream
// package. Facts are how mglint sees through helper indirection: detrand
// marks a wrapper that reaches time.Now, hotalloc marks a helper that
// allocates on its steady path, closecheck marks a function that returns
// a write handle — and the analyzers consult those marks at every call
// site, whatever package the call crosses into.
//
// Identity is the hard part: the driver type-checks each package from
// source but sees its dependencies through gc export data, so the same
// function is represented by distinct types.Object values in different
// packages. The store therefore keys facts by a stable string path —
// import path plus "Name" or "(Recv).Name" — rather than by object
// identity. Only package-level objects and methods are addressable this
// way, which is exactly the set visible across package boundaries.

// A Fact is one exportable annotation. Implementations must be pointers
// to structs; AFact is a marker only.
type Fact interface{ AFact() }

// objectKey returns the stable intra-package key for obj: "Name" for
// package-level objects, "(Recv).Name" for methods. ok is false for
// objects facts cannot address (locals, fields, interface methods of
// unnamed types).
func objectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return "(" + named.Obj().Name() + ")." + fn.Name(), true
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false // not package-level
	}
	return obj.Name(), true
}

type factKey struct {
	pkg      string // plain import path of the annotated object's package
	obj      string // objectKey
	analyzer string
}

// A factStore holds every fact of one analysis run; Run threads one store
// through all packages in dependency order.
type factStore map[factKey]Fact

// ExportObjectFact attaches fact to obj for downstream packages. The
// object must be package-level or a method on a named type; facts on
// anything else are silently not exportable and dropped.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil {
		return
	}
	key, ok := objectKey(obj)
	if !ok {
		return
	}
	p.facts[factKey{pkg: obj.Pkg().Path(), obj: key, analyzer: p.Analyzer.Name}] = fact
}

// ImportObjectFact copies the fact of the same concrete type attached to
// obj into fact (a pointer), reporting whether one was found. Works for
// objects of the current package (exported earlier in this pass) and for
// imported objects seen through export data.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	key, ok := objectKey(obj)
	if !ok {
		return false
	}
	f, ok := p.facts[factKey{pkg: obj.Pkg().Path(), obj: key, analyzer: p.Analyzer.Name}]
	if !ok {
		return false
	}
	dst, src := reflect.ValueOf(fact), reflect.ValueOf(f)
	if dst.Kind() != reflect.Pointer || dst.Type() != src.Type() {
		return false
	}
	dst.Elem().Set(src.Elem())
	return true
}

// Waived reports whether a finding of this pass's analyzer at pos is
// suppressed by an //mglint:ignore directive. Analyzers consult it during
// fact computation: a waived occurrence documents a sanctioned exception
// (a telemetry clock read, a deliberate allocation), so it must not
// export a fact that would flag every transitive caller.
func (p *Pass) Waived(pos token.Pos) bool {
	return p.waived != nil && p.waived(pos)
}
