// Alias cases: closecheck is syntactic and tracks only the name an open
// assigned, so a deferred Close through a copy (`w := f`) is not reported;
// a read handle stays exempt whatever its name.
package closecheck

import "os"

func aliasedDeferClose(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := f
	defer w.Close()
	_, err = w.WriteString("data")
	return err
}

func aliasChainDeferClose(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := f
	v := w
	defer v.Close()
	_, err = v.WriteString("data")
	return err
}

func aliasedReadOnly(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	r := f
	defer r.Close() // read handle: alias of a read-only open, exempt
	buf := make([]byte, 8)
	_, err = r.Read(buf)
	return err
}
