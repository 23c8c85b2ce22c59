package scenario

import (
	"time"

	"repro/internal/faultline"
)

// LiveFaultPlan translates a simulator scenario Config into a
// faultline.Plan for the live clusters (internal/transport), so the same
// named regimes and failure plans drive real sockets. The per-link
// profiles come from the table Build installs (regimeLinks), the
// simulated GST becomes a wall-clock offset from cluster start, each
// scheduled crash becomes a wall-clock crash-stop, and each restart
// becomes a crash-then-reboot cycle (the cluster rebuilds the automaton
// from its durable store after Downtime).
//
// The translation is semantic, not bit-exact: the simulator draws delays
// on a virtual clock while the injector draws them on top of real socket
// latency, so traces differ — but which links are timely, lossy, or down,
// and with what parameters, is the same experiment.
func LiveFaultPlan(cfg Config) (faultline.Plan, error) {
	if err := cfg.fill(); err != nil {
		return faultline.Plan{}, err
	}
	def, links, err := regimeLinks(cfg)
	if err != nil {
		return faultline.Plan{}, err
	}
	plan := faultline.Plan{
		GST:     time.Duration(cfg.GST),
		Default: def,
		Links:   links,
		Crashes: make([]faultline.Crash, 0, len(cfg.Crashes)),
	}
	for _, cr := range cfg.Crashes {
		plan.Crashes = append(plan.Crashes, faultline.Crash{ID: cr.ID, After: time.Duration(cr.At)})
	}
	for _, rs := range cfg.Restarts {
		plan.Restarts = append(plan.Restarts, faultline.Restart{
			ID:       rs.ID,
			After:    time.Duration(rs.At),
			Downtime: time.Duration(rs.Downtime),
		})
	}
	return plan, nil
}
