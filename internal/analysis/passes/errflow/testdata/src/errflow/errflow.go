// Golden package for the errflow analyzer: sentinel comparisons on any
// error value, sentinel switches, message-text matching, and the shapes
// that stay legal.
package errflow

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

var ErrBusy = errors.New("busy")

func read() error { return io.EOF }

func direct() bool {
	err := read()
	return err == io.EOF // want `io.EOF compared with ==`
}

func negated() bool {
	err := read()
	if err != ErrBusy { // want `ErrBusy compared with !=`
		return true
	}
	return false
}

func callResult() bool {
	return read() == io.EOF // want `io.EOF compared with ==`
}

// Every assignment is a sentinel or nil, but the check reads types, not
// value flow: the comparison is still flagged.
func provable(c bool) bool {
	var err error
	err = ErrBusy
	if c {
		err = nil
	}
	return err == ErrBusy // want `ErrBusy compared with ==`
}

// The sanctioned form is never flagged.
func sanctioned() bool {
	return errors.Is(read(), io.EOF)
}

// load returns a wrapped io.EOF: callers comparing with == lose.
func load(p string) error {
	return fmt.Errorf("load %s: %w", p, io.EOF)
}

// indirect wraps through load, two calls deep.
func indirect(p string) error {
	if p == "" {
		return nil
	}
	return load(p)
}

func viaFactOneHop(p string) bool {
	err := load(p)
	return err == io.EOF // want `io.EOF compared with ==`
}

func viaFactTwoHops(p string) bool {
	err := indirect(p)
	return err == io.EOF // want `io.EOF compared with ==`
}

func waived() bool {
	err := read()
	//mglint:ignore errflow the decoder contract pins an unwrapped io.EOF at stream end
	return err == io.EOF
}

func messageText() bool {
	return read().Error() == "EOF" // want `err.Error\(\) message text`
}

func messageMatch(err error) bool {
	return strings.Contains(err.Error(), "busy") // want `strings.Contains on err.Error\(\)`
}

func sentinelSwitch(err error) int {
	switch err { // want `switch on an error value`
	case io.EOF:
		return 1
	case nil:
		return 0
	}
	return 2
}
