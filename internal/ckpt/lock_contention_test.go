//go:build unix

package ckpt

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain doubles this test binary as the lock-contention helper:
// with CKPT_LOCK_HELPER_DIR set it is a real second process that
// opens the journal in that directory and holds it until stdin
// closes.  TestJournalContentionLiveProcesses drives it.
func TestMain(m *testing.M) {
	if dir := os.Getenv("CKPT_LOCK_HELPER_DIR"); dir != "" {
		lockHelper(dir)
		return
	}
	os.Exit(m.Run())
}

// lockHelper is the child side: try Open once, report the outcome on
// stdout ("LOCKED" or "DENIED <err>"), and — having won — hold the
// journal until the parent closes stdin.
func lockHelper(dir string) {
	j, err := Open(dir, Manifest{Identity: "contended"})
	if err != nil {
		fmt.Printf("DENIED %v\n", err)
		return
	}
	fmt.Println("LOCKED")
	io.Copy(io.Discard, os.Stdin) // hold until the parent hangs up
	if err := j.Close(); err != nil {
		fmt.Printf("CLOSE-ERR %v\n", err)
		return
	}
	fmt.Println("RELEASED")
}

// lockChild is one live helper process racing for the journal.
type lockChild struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

// spawnLockChild starts the helper and reads its first verdict line.
func spawnLockChild(t *testing.T, dir string) (*lockChild, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "CKPT_LOCK_HELPER_DIR="+dir)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &lockChild{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	t.Cleanup(func() {
		stdin.Close()
		cmd.Process.Kill()
		cmd.Wait()
	})
	return c, c.readLine(t)
}

func (c *lockChild) readLine(t *testing.T) string {
	t.Helper()
	type lineErr struct {
		line string
		err  error
	}
	ch := make(chan lineErr, 1)
	go func() {
		line, err := c.out.ReadString('\n')
		ch <- lineErr{strings.TrimSpace(line), err}
	}()
	select {
	case le := <-ch:
		if le.err != nil {
			t.Fatalf("helper output: %v", le.err)
		}
		return le.line
	case <-time.After(10 * time.Second):
		t.Fatal("helper said nothing within 10s")
		return ""
	}
}

// TestJournalContentionLiveProcesses is the cross-process flock
// contract: while one live process holds a checkpoint's journal, a
// second live process — and this one — must be refused; once the
// holder closes, the journal opens and commits normally.  (The
// in-process variant in lock_unix_test.go can't prove this: flock
// exclusion across processes is per file description, and only a real
// second process exercises the kernel path a crashed-or-racing worker
// would take.)
func TestJournalContentionLiveProcesses(t *testing.T) {
	dir := t.TempDir()

	holder, verdict := spawnLockChild(t, dir)
	if verdict != "LOCKED" {
		t.Fatalf("first process failed to take the journal: %q", verdict)
	}

	// A second live process racing for the journal loses.
	_, verdict2 := spawnLockChild(t, dir)
	if !strings.HasPrefix(verdict2, "DENIED") {
		t.Fatalf("second live process was not refused: %q", verdict2)
	}
	if !strings.Contains(verdict2, "locked") {
		t.Errorf("contention error does not explain itself: %q", verdict2)
	}

	// This process loses the race too.
	if _, err := Open(dir, Manifest{Identity: "contended"}); err == nil {
		t.Fatal("parent opened a journal held by a live child process")
	}

	// The holder releases; the journal opens here and accepts commits.
	holder.stdin.Close()
	if line := holder.readLine(t); line != "RELEASED" {
		t.Fatalf("holder did not release cleanly: %q", line)
	}
	if err := holder.cmd.Wait(); err != nil {
		t.Fatalf("holder exit: %v", err)
	}
	j, err := Open(dir, Manifest{Identity: "contended"})
	if err != nil {
		t.Fatalf("open after holder exit: %v", err)
	}
	if err := j.Commit(Record{Key: "cell", Status: StatusDone}); err != nil {
		t.Fatalf("commit after takeover: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
