package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadProgramFromSource(t *testing.T) {
	src := write(t, "p.s", ".org 0x2000\n_start:\n mov eax, 1\n hlt\n")
	img, disk, entry, err := loadProgram("", "0x1000", "", "", []string{src})
	if err != nil {
		t.Fatal(err)
	}
	if img.org != 0x2000 || entry != 0x2000 || disk != nil {
		t.Errorf("org %#x entry %#x", img.org, entry)
	}
	if len(img.data) == 0 {
		t.Error("empty image")
	}
}

func TestLoadProgramFromImage(t *testing.T) {
	bin := write(t, "p.bin", "\x00\x01") // nop, hlt
	disk := write(t, "d.img", "DISKDATA")
	img, d, entry, err := loadProgram(bin, "0x4000", "0x4001", disk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if img.org != 0x4000 || entry != 0x4001 {
		t.Errorf("org %#x entry %#x", img.org, entry)
	}
	if string(d) != "DISKDATA" {
		t.Errorf("disk %q", d)
	}
}

func runCmsrun(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCleanHalt(t *testing.T) {
	src := write(t, "p.s", ".org 0x1000\n_start:\n mov eax, 7\n hlt\n")
	code, stdout, _ := runCmsrun(t, src)
	if code != exitOK {
		t.Fatalf("exit = %d, want %d", code, exitOK)
	}
	if !strings.Contains(stdout, "eax=0x7") {
		t.Errorf("stdout missing final state: %q", stdout)
	}
}

// TestExitGuestFault is the scripting fix: a guest that dies on an
// unrecoverable fault (here an unhandled software interrupt) must be
// distinguishable to callers from a clean hlt and from tool errors.
func TestExitGuestFault(t *testing.T) {
	src := write(t, "p.s", ".org 0x1000\n_start:\n int 5\n hlt\n")
	code, _, stderr := runCmsrun(t, src)
	if code != exitFault {
		t.Fatalf("exit = %d (stderr %q), want %d", code, stderr, exitFault)
	}
	if stderr == "" {
		t.Error("fault exited silently")
	}
}

// TestExitGuestFaultInTranslatedCode faults after hot translated code ran —
// the recovery path (rollback, re-interpretation, genuine-fault delivery)
// must surface the same exit code as an interpreter-path fault.
func TestExitGuestFaultInTranslatedCode(t *testing.T) {
	src := write(t, "p.s", `
.org 0x1000
_start:
	mov ecx, 2000
loop:
	add eax, 1
	dec ecx
	jne loop
	mov ebx, [0x800000]
	hlt
`)
	code, _, _ := runCmsrun(t, "-ram", "2097152", src)
	if code != exitFault {
		t.Fatalf("exit = %d, want %d", code, exitFault)
	}
}

func TestExitBudgetExhausted(t *testing.T) {
	src := write(t, "p.s", ".org 0x1000\n_start:\n jmp _start\n")
	code, _, stderr := runCmsrun(t, "-budget", "10000", src)
	if code != exitBudget {
		t.Fatalf("exit = %d (stderr %q), want %d", code, stderr, exitBudget)
	}
	if !strings.Contains(stderr, "budget") {
		t.Errorf("stderr = %q, want budget message", stderr)
	}
}

func TestExitUsageErrors(t *testing.T) {
	if code, _, _ := runCmsrun(t); code != exitUsage {
		t.Errorf("no args: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCmsrun(t, "/no/such/file.s"); code != exitUsage {
		t.Errorf("missing file: exit %d, want %d", code, exitUsage)
	}
	bad := write(t, "bad.s", "not a real instruction\n")
	if code, _, _ := runCmsrun(t, bad); code != exitUsage {
		t.Errorf("bad assembly: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCmsrun(t, "-no-such-flag"); code != exitUsage {
		t.Errorf("bad flag: exit %d, want %d", code, exitUsage)
	}
	src := write(t, "p.s", ".org 0x1000\n_start:\n hlt\n")
	if code, _, _ := runCmsrun(t, "-workers", "2", src); code != exitUsage {
		t.Errorf("removed -workers flag: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCmsrun(t, "-backend", "risc", src); code != exitUsage {
		t.Errorf("removed -backend flag: exit %d, want %d", code, exitUsage)
	}
}

// TestCheckpointRestoreRoundtrip splits one run across -checkpoint and
// -restore and requires the continuation to reach the same final state a
// solo run reports, with the restored budget defaulting to the capture's.
func TestCheckpointRestoreRoundtrip(t *testing.T) {
	prog := `
.org 0x1000
_start:
	mov ecx, 60000
loop:
	add eax, 3
	dec ecx
	jne loop
	hlt
`
	src := write(t, "p.s", prog)
	code, solo, _ := runCmsrun(t, src)
	if code != exitOK {
		t.Fatalf("solo exit = %d", code)
	}

	snap := filepath.Join(t.TempDir(), "half.snap")
	code, out, _ := runCmsrun(t, "-budget", "50000", "-checkpoint", snap, src)
	if code != exitBudget {
		t.Fatalf("capture exit = %d, want %d", code, exitBudget)
	}
	if !strings.Contains(out, "checkpoint: ") {
		t.Fatalf("no checkpoint confirmation in %q", out)
	}

	// -budget was not given: the restore must adopt the captured budget and
	// stop exactly where the capture did (still exit 3, zero extra insns).
	code, _, _ = runCmsrun(t, "-restore", snap)
	if code != exitBudget {
		t.Fatalf("same-budget restore exit = %d, want %d", code, exitBudget)
	}

	// A raised budget finishes the run; the final state must match solo.
	code, out, _ = runCmsrun(t, "-budget", "100000000", "-restore", snap)
	if code != exitOK {
		t.Fatalf("restore exit = %d", code)
	}
	want := solo[strings.Index(solo, "final state:"):]
	got := out[strings.Index(out, "final state:"):]
	if want != got {
		t.Fatalf("final state diverged:\nsolo    %q\nrestore %q", want, got)
	}

	if code, _, _ := runCmsrun(t, "-restore", snap, src); code != exitUsage {
		t.Errorf("-restore with a program: exit %d, want %d", code, exitUsage)
	}
	garbage := write(t, "bad.snap", "not a snapshot")
	if code, _, _ := runCmsrun(t, "-restore", garbage); code != exitUsage {
		t.Errorf("corrupt envelope: exit %d, want %d", code, exitUsage)
	}
}

func TestLoadProgramErrors(t *testing.T) {
	if _, _, _, err := loadProgram("", "0x1000", "", "", nil); err == nil {
		t.Error("missing source must fail")
	}
	if _, _, _, err := loadProgram("", "0x1000", "", "", []string{"/nonexistent.s"}); err == nil {
		t.Error("unreadable source must fail")
	}
	bad := write(t, "bad.s", "frobnicate eax\n")
	if _, _, _, err := loadProgram("", "0x1000", "", "", []string{bad}); err == nil {
		t.Error("bad assembly must fail")
	}
	bin := write(t, "p.bin", "\x00")
	if _, _, _, err := loadProgram(bin, "zzz", "", "", nil); err == nil {
		t.Error("bad org must fail")
	}
	if _, _, _, err := loadProgram(bin, "0x1000", "zzz", "", nil); err == nil {
		t.Error("bad entry must fail")
	}
	if _, _, _, err := loadProgram(bin, "0x1000", "", "/nonexistent.img", nil); err == nil {
		t.Error("unreadable disk must fail")
	}
}
