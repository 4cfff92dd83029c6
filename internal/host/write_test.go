package host

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestWriteAllocsPerKeyedEvent pins the cost of the write path: the change
// closure a mutator hands to write stays on the stack, so a mutation
// allocates only the strings its key and detail concatenate.
func TestWriteAllocsPerKeyedEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes allocation counts")
	}
	l := NewLinux()
	l.Install("aide", "1")
	l.EnableService("auditd")
	w := NewWindows10()
	for _, c := range []struct {
		name   string
		allocs float64
		fn     func()
	}{
		{"Install", 0, func() { l.Install("aide", "1") }},
		{"Remove", 0, func() { l.Remove("aide") }},
		{"EnableService", 0, func() { l.EnableService("auditd") }},
		{"DisableService", 0, func() { l.DisableService("auditd") }},
		{"SetUnreachable", 0, func() { l.SetUnreachable(true); l.SetUnreachable(false) }},
		// The configuration key's name and the event detail.
		{"SetConfig", 2, func() { l.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "SHA512") }},
		{"UnsetConfig", 1, func() { l.UnsetConfig("/etc/login.defs", "ENCRYPT_METHOD") }},
		// The event detail.
		{"SetAudit", 1, func() { _ = w.SetAudit("Logon", AuditSetting{Success: true}) }},
		{"SetRegistry", 1, func() { w.SetRegistry(`HKLM\X`, "1") }},
	} {
		// Appends grow the event log now and then; averaged over many
		// runs the growth rounds away.
		if got := testing.AllocsPerRun(1000, c.fn); got != c.allocs {
			t.Errorf("%s allocates %.0f times per call, want %.0f", c.name, got, c.allocs)
		}
	}
}

// stateFields are the host fields that hold the slots checks read.
var stateFields = map[string]bool{
	"packages": true, "services": true, "config": true, "unreachable": true,
	"audit": true, "categories": true, "registry": true,
}

// writers are the functions that may change state fields directly.
var writers = map[string]bool{
	"write": true, "NewLinux": true, "NewWindows10": true, "NewLinuxFromSnapshot": true,
}

// stateWritesOutsideWrite parses the named files of this package and
// returns "file:line func" for every assignment, increment, delete,
// clear or maps.Copy of a state field outside write and the
// constructors. The change closure a mutator passes to write runs
// inside write, so its body counts as write's.
func stateWritesOutsideWrite(t *testing.T, files []string) []string {
	t.Helper()
	fset := token.NewFileSet()
	var out []string
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || writers[fd.Name.Name] {
				continue
			}
			change := map[ast.Node]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if change[n] {
					return false
				}
				var targets []ast.Expr
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "write" && len(n.Args) > 0 {
						change[n.Args[len(n.Args)-1]] = true
					}
					switch callName(n.Fun) {
					case "delete", "clear", "maps.Copy":
						targets = n.Args[:1]
					}
				case *ast.AssignStmt:
					targets = n.Lhs
				case *ast.IncDecStmt:
					targets = []ast.Expr{n.X}
				}
				for _, e := range targets {
					if stateField(e) {
						out = append(out, fmt.Sprintf("%s:%d %s", name, fset.Position(e.Pos()).Line, fd.Name.Name))
					}
				}
				return true
			})
		}
	}
	return out
}

// callName renders a called function as "f" or "pkg.f".
func callName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); ok {
			return x.Name + "." + f.Sel.Name
		}
	}
	return ""
}

// stateField reports whether e denotes a state field or an element of
// one.
func stateField(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			return stateFields[x.Sel.Name]
		default:
			return false
		}
	}
}

// TestStateWritesGoThroughWrite is the static half of the write-side
// contract: outside write and the constructors, no code of this package
// assigns or deletes a state field, so every mutation logs the key
// write is given.
func TestStateWritesGoThroughWrite(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		t.Fatal("no source files found")
	}
	for _, w := range stateWritesOutsideWrite(t, files) {
		t.Errorf("%s changes host state outside write", w)
	}
}

// slots renders every state slot of the host under the key its
// mutators must log. Configuration slots whose file path contains ':'
// share keys (ConfigKey); the tests below use none.
func (l *Linux) slots() map[StateKey]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[StateKey]string{NetKey(): fmt.Sprint(l.unreachable)}
	for name, p := range l.packages {
		out[PackageKey(name)] = fmt.Sprint(p)
	}
	for name, s := range l.services {
		out[ServiceKey(name)] = fmt.Sprint(s)
	}
	for slot, v := range l.config {
		out[ConfigKey(slot.File, slot.Key)] = v
	}
	return out
}

func (w *Windows) slots() map[StateKey]string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := map[StateKey]string{}
	for sub, s := range w.audit {
		out[AuditKey(sub)] = s.String()
	}
	for key, v := range w.registry {
		out[RegistryKey(key)] = v
	}
	return out
}

// unloggedChanges returns, sorted, the slots that differ between before
// and after but that no event's key names. An unkeyed event covers the
// whole host.
func unloggedChanges(before, after map[StateKey]string, events []Event) []StateKey {
	logged := map[StateKey]bool{}
	for _, ev := range events {
		if ev.Key.IsZero() {
			return nil
		}
		logged[ev.Key] = true
	}
	var out []StateKey
	for k, v := range after {
		if was, ok := before[k]; (!ok || was != v) && !logged[k] {
			out = append(out, k)
		}
	}
	for k := range before {
		if _, ok := after[k]; !ok && !logged[k] {
			out = append(out, k)
		}
	}
	slices.SortFunc(out, CompareKeys)
	return out
}

func eventKeys(evs []Event) []StateKey {
	out := make([]StateKey, len(evs))
	for i, ev := range evs {
		out[i] = ev.Key
	}
	return out
}

// TestMutatorsLogTheSlotsTheyChange is the dynamic half: around every
// mutator, on a writable and on a read-only host, the slots that
// changed must be among the keys the mutation logged.
func TestMutatorsLogTheSlotsTheyChange(t *testing.T) {
	for _, readOnly := range []bool{false, true} {
		l := NewUbuntu1804()
		l.EnableService("sshd")
		l.SetReadOnly(readOnly)
		for _, m := range []struct {
			name string
			fn   func()
		}{
			{"install new", func() { l.Install("nis", "1.0") }},
			{"install over", func() { l.Install("sudo", "2.0") }},
			{"remove", func() { l.Remove("sudo") }},
			{"remove unknown", func() { l.Remove("ghost") }},
			{"enable", func() { l.EnableService("auditd") }},
			{"disable", func() { l.DisableService("sshd") }},
			{"disable unknown", func() { l.DisableService("ghost") }},
			{"set config", func() { l.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "MD5") }},
			{"unset config", func() { l.UnsetConfig("/etc/ssh/sshd_config", "PermitEmptyPasswords") }},
			{"drift", func() { DriftLinux(l, 6, rand.New(rand.NewSource(1))) }},
			{"net down", func() { l.SetUnreachable(true) }},
			{"net down again", func() { l.SetUnreachable(true) }},
			{"net up", func() { l.SetUnreachable(false) }},
		} {
			before, stop := l.slots(), recordEvents(l.Log())
			m.fn()
			evs := stop()
			if miss := unloggedChanges(before, l.slots(), evs); len(miss) > 0 {
				t.Errorf("read-only=%v %s: changed %v without logging them (logged %v)", readOnly, m.name, miss, eventKeys(evs))
			}
		}
	}

	w := NewWindows10()
	ap := AuditPol{W: w}
	for _, m := range []struct {
		name string
		fn   func()
	}{
		{"set audit", func() { _ = w.SetAudit("Logon", AuditSetting{Failure: true}) }},
		{"set unknown audit", func() { _ = w.SetAudit("ghost", AuditSetting{Failure: true}) }},
		{"auditpol /set", func() {
			_, _ = ap.Run("/set", `/subcategory:"Account Lockout"`, "/failure:enable")
		}},
		{"set registry", func() { w.SetRegistry(`HKLM\X`, "1") }},
		{"drift", func() { DriftWindows(w, 4, rand.New(rand.NewSource(1))) }},
	} {
		before, stop := w.slots(), recordEvents(w.Log())
		m.fn()
		evs := stop()
		if miss := unloggedChanges(before, w.slots(), evs); len(miss) > 0 {
			t.Errorf("windows %s: changed %v without logging them (logged %v)", m.name, miss, eventKeys(evs))
		}
	}
}

// TestSeededMisKeyedMutatorFailsBothGuards shows that each half of the
// write-side contract catches the seeded fault in miskeyed_test.go: the
// AST scan finds its direct write, and the slot oracle finds a changed
// configuration slot that only a service key was logged for.
func TestSeededMisKeyedMutatorFailsBothGuards(t *testing.T) {
	got := stateWritesOutsideWrite(t, []string{"miskeyed_test.go"})
	if len(got) != 1 || !strings.HasSuffix(got[0], " misKeyedSetConfig") {
		t.Errorf("AST scan of the fixture = %v, want one write in misKeyedSetConfig", got)
	}
	l := NewUbuntu1804()
	before, stop := l.slots(), recordEvents(l.Log())
	l.misKeyedSetConfig("/etc/login.defs", "ENCRYPT_METHOD", "MD5")
	evs := stop()
	want := []StateKey{ConfigKey("/etc/login.defs", "ENCRYPT_METHOD")}
	if miss := unloggedChanges(before, l.slots(), evs); !reflect.DeepEqual(miss, want) {
		t.Errorf("slot oracle on the fixture = %v, want %v", miss, want)
	}
}
