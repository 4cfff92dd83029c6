package host

import (
	"reflect"
	"testing"
)

// pkgProbe, svcProbe and cfgProbe are the expected answers of the
// Linux read accessors for one slot.
type pkgProbe struct {
	name, version string
	installed     bool
}

type svcProbe struct {
	name   string
	active bool
}

type cfgProbe struct {
	file, key, value string
	ok               bool
}

// TestLinuxStateSequences pins what the read accessors and Snapshot
// report after sequences of mutators, whatever the internal layout of
// the package, service and configuration state.
func TestLinuxStateSequences(t *testing.T) {
	// roundTrip provisions a fresh host from the snapshot of l.
	roundTrip := func(l *Linux) *Linux { return NewLinuxFromSnapshot(l.Snapshot()) }
	cases := []struct {
		name     string
		build    func() *Linux
		snap     Snapshot
		packages []string
		pkgs     []pkgProbe
		svcs     []svcProbe
		cfgs     []cfgProbe
	}{
		{
			name: "install remove reinstall",
			build: func() *Linux {
				l := NewLinux()
				l.Install("nis", "1.0")
				l.Remove("nis")
				l.Install("nis", "2.0")
				return l
			},
			snap:     Snapshot{Packages: map[string]string{"nis": "2.0"}, Services: map[string]bool{}, Config: map[ConfigSlot]string{}},
			packages: []string{"nis"},
			pkgs:     []pkgProbe{{"nis", "2.0", true}},
		},
		{
			name: "install then remove",
			build: func() *Linux {
				l := NewLinux()
				l.Install("nis", "1.0")
				l.Install("aide", "0.16")
				l.Remove("nis")
				return l
			},
			snap:     Snapshot{Packages: map[string]string{"aide": "0.16"}, Services: map[string]bool{}, Config: map[ConfigSlot]string{}},
			packages: []string{"aide"},
			pkgs:     []pkgProbe{{"nis", "", false}, {"aide", "0.16", true}},
		},
		{
			name: "removing an unknown package creates nothing",
			build: func() *Linux {
				l := NewLinux()
				l.Remove("ghost")
				return l
			},
			snap: Snapshot{Packages: map[string]string{}, Services: map[string]bool{}, Config: map[ConfigSlot]string{}},
			pkgs: []pkgProbe{{"ghost", "", false}},
		},
		{
			name: "disabling an unknown service creates nothing",
			build: func() *Linux {
				l := NewLinux()
				l.DisableService("ghost")
				return l
			},
			snap: Snapshot{Packages: map[string]string{}, Services: map[string]bool{}, Config: map[ConfigSlot]string{}},
			svcs: []svcProbe{{"ghost", false}},
		},
		{
			name: "enable then disable keeps the service inactive",
			build: func() *Linux {
				l := NewLinux()
				l.EnableService("auditd")
				l.EnableService("telnet")
				l.DisableService("telnet")
				return l
			},
			snap: Snapshot{Packages: map[string]string{}, Services: map[string]bool{"auditd": true, "telnet": false}, Config: map[ConfigSlot]string{}},
			svcs: []svcProbe{{"auditd", true}, {"telnet", false}},
		},
		{
			name: "set and unset a config key",
			build: func() *Linux {
				l := NewLinux()
				l.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "MD5")
				l.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "SHA512")
				l.SetConfig("/etc/login.defs", "PASS_MAX_DAYS", "60")
				l.SetConfig("/etc/ssh/sshd_config", "PermitRootLogin", "no")
				l.UnsetConfig("/etc/login.defs", "PASS_MAX_DAYS")
				l.UnsetConfig("/etc/absent", "k")
				return l
			},
			snap: Snapshot{Packages: map[string]string{}, Services: map[string]bool{}, Config: map[ConfigSlot]string{
				{"/etc/login.defs", "ENCRYPT_METHOD"}:       "SHA512",
				{"/etc/ssh/sshd_config", "PermitRootLogin"}: "no",
			}},
			cfgs: []cfgProbe{
				{"/etc/login.defs", "ENCRYPT_METHOD", "SHA512", true},
				{"/etc/login.defs", "PASS_MAX_DAYS", "", false},
				{"/etc/ssh/sshd_config", "PermitRootLogin", "no", true},
				{"/etc/absent", "k", "", false},
			},
		},
		{
			name: "a config file path containing a colon",
			build: func() *Linux {
				l := NewLinux()
				l.SetConfig("/etc/app:v2.conf", "mode", "strict")
				return l
			},
			snap: Snapshot{Packages: map[string]string{}, Services: map[string]bool{}, Config: map[ConfigSlot]string{
				{"/etc/app:v2.conf", "mode"}: "strict",
			}},
			cfgs: []cfgProbe{
				{"/etc/app:v2.conf", "mode", "strict", true},
				{"/etc/app", "v2.conf:mode", "", false},
			},
		},
		{
			name: "colon-joined file and key stay distinct slots",
			build: func() *Linux {
				l := NewLinux()
				l.SetConfig("/a:b", "c", "1")
				l.SetConfig("/a", "b:c", "2")
				l.UnsetConfig("/a:b", "c")
				return l
			},
			snap: Snapshot{Packages: map[string]string{}, Services: map[string]bool{}, Config: map[ConfigSlot]string{{"/a", "b:c"}: "2"}},
			cfgs: []cfgProbe{{"/a:b", "c", "", false}, {"/a", "b:c", "2", true}},
		},
		{
			name: "a colon in a file path survives the snapshot round trip",
			build: func() *Linux {
				l := NewLinux()
				l.SetConfig("/etc/app:v2.conf", "mode", "strict")
				return roundTrip(l)
			},
			snap: Snapshot{Packages: map[string]string{}, Services: map[string]bool{}, Config: map[ConfigSlot]string{
				{"/etc/app:v2.conf", "mode"}: "strict",
			}},
			cfgs: []cfgProbe{
				{"/etc/app:v2.conf", "mode", "strict", true},
				{"/etc/app", "v2.conf:mode", "", false},
			},
		},
		{
			name: "colon-joined slots stay distinct through the snapshot round trip",
			build: func() *Linux {
				l := NewLinux()
				l.SetConfig("/a:b", "c", "1")
				l.SetConfig("/a", "b:c", "2")
				return roundTrip(l)
			},
			snap: Snapshot{Packages: map[string]string{}, Services: map[string]bool{}, Config: map[ConfigSlot]string{
				{"/a:b", "c"}: "1",
				{"/a", "b:c"}: "2",
			}},
			cfgs: []cfgProbe{{"/a:b", "c", "1", true}, {"/a", "b:c", "2", true}},
		},
		{
			name: "empty file or key parts survive the snapshot round trip",
			build: func() *Linux {
				l := NewLinux()
				l.SetConfig("", "empty-file", "x")
				l.SetConfig("/etc/g", "", "y")
				return roundTrip(l)
			},
			snap: Snapshot{Packages: map[string]string{}, Services: map[string]bool{}, Config: map[ConfigSlot]string{
				{"", "empty-file"}: "x",
				{"/etc/g", ""}:     "y",
			}},
			cfgs: []cfgProbe{{"", "empty-file", "x", true}, {"/etc/g", "", "y", true}},
		},
		{
			name: "snapshot round trip",
			build: func() *Linux {
				l := NewLinux()
				l.Install("openssh-server", "7.6")
				l.Install("nis", "1.0")
				l.Remove("nis")
				l.EnableService("sshd")
				l.EnableService("telnet")
				l.DisableService("telnet")
				l.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "SHA512")
				return roundTrip(l)
			},
			snap: Snapshot{
				Packages: map[string]string{"openssh-server": "7.6"},
				Services: map[string]bool{"sshd": true, "telnet": false},
				Config:   map[ConfigSlot]string{{"/etc/login.defs", "ENCRYPT_METHOD"}: "SHA512"},
			},
			packages: []string{"openssh-server"},
			pkgs:     []pkgProbe{{"openssh-server", "7.6", true}, {"nis", "", false}},
			svcs:     []svcProbe{{"sshd", true}, {"telnet", false}},
			cfgs:     []cfgProbe{{"/etc/login.defs", "ENCRYPT_METHOD", "SHA512", true}},
		},
		{
			name: "mutating a provisioned host",
			build: func() *Linux {
				l := NewLinuxFromSnapshot(Snapshot{
					Packages: map[string]string{"nis": "1.0", "aide": "0.16"},
					Services: map[string]bool{"telnet": false},
					Config:   map[ConfigSlot]string{{"/etc/f", "k"}: "v"},
				})
				l.Remove("nis")
				l.Install("aide", "0.17")
				l.EnableService("telnet")
				l.UnsetConfig("/etc/f", "k")
				l.SetConfig("/etc/f", "j", "w")
				return l
			},
			snap: Snapshot{
				Packages: map[string]string{"aide": "0.17"},
				Services: map[string]bool{"telnet": true},
				Config:   map[ConfigSlot]string{{"/etc/f", "j"}: "w"},
			},
			packages: []string{"aide"},
			pkgs:     []pkgProbe{{"nis", "", false}, {"aide", "0.17", true}},
			svcs:     []svcProbe{{"telnet", true}},
			cfgs:     []cfgProbe{{"/etc/f", "k", "", false}, {"/etc/f", "j", "w", true}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.build()
			if got := l.Snapshot(); !reflect.DeepEqual(got, tc.snap) {
				t.Errorf("Snapshot = %+v, want %+v", got, tc.snap)
			}
			if got := l.Packages(); !reflect.DeepEqual(got, tc.packages) {
				t.Errorf("Packages = %q, want %q", got, tc.packages)
			}
			for _, p := range tc.pkgs {
				if got := l.Version(p.name); got != p.version {
					t.Errorf("Version(%q) = %q, want %q", p.name, got, p.version)
				}
				if got := l.Installed(p.name); got != p.installed {
					t.Errorf("Installed(%q) = %v, want %v", p.name, got, p.installed)
				}
			}
			for _, s := range tc.svcs {
				if got := l.ServiceActive(s.name); got != s.active {
					t.Errorf("ServiceActive(%q) = %v, want %v", s.name, got, s.active)
				}
			}
			for _, c := range tc.cfgs {
				v, ok := l.Config(c.file, c.key)
				if v != c.value || ok != c.ok {
					t.Errorf("Config(%q, %q) = %q, %v; want %q, %v", c.file, c.key, v, ok, c.value, c.ok)
				}
			}
		})
	}
}
