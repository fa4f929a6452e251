// Package suppressed carries the same closecheck finding as dirty, but
// waived: exit status must be clean and nothing is printed.
package suppressed

import "os"

// Save defers Close on a write handle, with a reasoned waiver.
func Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	//mglint:ignore closecheck scratch file is re-read and verified by the caller, a lost final write is detected there
	defer f.Close()
	_, err = f.WriteString("x")
	return err
}
