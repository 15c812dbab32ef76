package server

import (
	"net/http"
	"runtime"
	"runtime/debug"
)

// Version identifies the running build in /version, /healthz, and the boot
// log. It is "dev" unless stamped at link time:
//
//	go build -ldflags "-X stwig/internal/server.Version=v1.2.3" ./cmd/stwigd
var Version = "dev"

// BuildVersion assembles the build identity from the linker stamp plus
// whatever runtime/debug.ReadBuildInfo recorded (VCS revision and time are
// present when the binary was built inside a checkout).
func BuildVersion() VersionResponse {
	v := VersionResponse{Version: Version, GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	if v.Version == "dev" && info.Main.Version != "" && info.Main.Version != "(devel)" {
		v.Version = info.Main.Version
	}
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			v.Revision = kv.Value
		case "vcs.time":
			v.BuildTime = kv.Value
		case "vcs.modified":
			v.Dirty = kv.Value == "true"
		}
	}
	return v
}

func (s *Server) handleVersion(rq *request) *apiError {
	writeJSON(rq.w, http.StatusOK, BuildVersion())
	return nil
}
