package obs

import (
	"os"
	"runtime"
	"runtime/debug"
)

// Host fingerprints the machine a capture or perf run was taken on.
type Host struct {
	Hostname   string `json:"hostname,omitempty"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUs       int    `json:"cpus"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// ReadHost captures the current process's fingerprint.
func ReadHost() Host {
	name, _ := os.Hostname()
	return Host{
		Hostname:   name,
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Equal reports whether two fingerprints describe the same machine
// shape. The hostname is ignored: two runs on identical hardware
// compare as equal whatever the machines are called.
func (h Host) Equal(o Host) bool {
	return h.OS == o.OS && h.Arch == o.Arch && h.CPUs == o.CPUs &&
		h.GoVersion == o.GoVersion && h.GOMAXPROCS == o.GOMAXPROCS
}

// VCSRevision extracts the commit the binary was built from ("" when
// unstamped, "-dirty" suffix on a modified tree).
func VCSRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, modified string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev != "" && modified == "true" {
		rev += "-dirty"
	}
	return rev
}
