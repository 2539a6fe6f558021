package indicator

// HoneyfileUnit is the SentryFS-style decoy-touch indicator: a set of
// planted files no legitimate workload has reason to modify, each touch
// worth an instant high score. It needs no measurement features at all
// (Features == 0) — the signal is the path, not the content — so it keeps
// firing on payload-blind backends and degraded host sessions where the
// content-dependent indicators lose their evidence. Not part of the default
// registry; compose it in with Default().With(NewHoneyfile(paths...)) after
// planting the decoys (livewatch.PlantHoneyfiles writes a standard set).
//
// The unit is immutable after construction and safe for concurrent Eval
// across engine shards.
type HoneyfileUnit struct {
	paths map[string]bool
}

// NewHoneyfile returns a honeyfile unit guarding exactly the given decoy
// paths. Paths are matched verbatim against event paths, so plant and guard
// through the same path convention (the live-watch Feeder submits absolute
// paths; the VFS backend uses root-relative ones).
func NewHoneyfile(paths ...string) *HoneyfileUnit {
	u := &HoneyfileUnit{paths: make(map[string]bool, len(paths))}
	for _, p := range paths {
		u.paths[p] = true
	}
	return u
}

// Paths returns the guarded decoy paths (order unspecified).
func (u *HoneyfileUnit) Paths() []string {
	out := make([]string, 0, len(u.paths))
	for p := range u.paths {
		out = append(out, p)
	}
	return out
}

// Decl declares the honeyfile indicator: secondary class (it scores, it
// does not gate union), zero feature needs, firing on any write, written
// close, rename or delete that names a decoy. The rename hook is what
// catches move-out attacks (Class B), whose only in-tree touches are
// renames.
func (u *HoneyfileUnit) Decl() Decl {
	return Decl{
		ID:       Honeyfile,
		Name:     "honeyfile",
		Class:    Secondary,
		Features: 0,
		Hooks:    []Hook{HookWrite, HookClose, HookRename, HookDelete},
		DefaultPoints: func(p *Points) {
			p.Honeyfile = 200
		},
	}
}

// Eval awards on every touch of a guarded path.
func (u *HoneyfileUnit) Eval(h Hook, ctx Context) (float64, bool) {
	if u.paths[ctx.Path()] {
		return ctx.Points().Honeyfile, true
	}
	return 0, false
}
