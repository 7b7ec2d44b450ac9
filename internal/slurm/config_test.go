package slurm

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// noPicker is a selection plug-in that cannot pick migrations.
type noPicker struct{}

func (noPicker) Decide(*QueueView, ResizeRequest) Decision { return Decision{Action: NoAction} }

// Config.Validate holds every controller-level rule; NewController
// panics with the error Validate reports.
func TestConfigValidate(t *testing.T) {
	const nodes = 8
	cl := testCluster(nodes) // rejected configs panic before touching it
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string // "" means the config is valid
	}{
		{"default", func(*Config) {}, ""},
		{"negative powercap", func(c *Config) { c.PowerCapW = -100 }, "negative"},
		{"bad ladder", func(c *Config) {
			c.SleepLadder = []SleepRung{{AfterIdle: 30 * sim.Second, State: 1}, {AfterIdle: 60 * sim.Second, State: 1}}
		}, "not deeper"},
		{"negative elastic min", func(c *Config) { c.Elastic = &ElasticConfig{Min: -1} }, "negative bound"},
		{"negative elastic max", func(c *Config) { c.Elastic = &ElasticConfig{Min: 1, Max: -1} }, "negative bound"},
		{"inverted elastic", func(c *Config) { c.Elastic = &ElasticConfig{Min: 6, Max: 4} }, "inverted"},
		{"elastic min clamps to the cluster", func(c *Config) { c.Elastic = &ElasticConfig{Min: 20, Max: nodes} }, ""},
		{"migration without policy", func(c *Config) { c.Migration = &MigrationConfig{} }, "MigrationPicker"},
		{"migration with a non-picker", func(c *Config) { c.Policy = noPicker{}; c.Migration = &MigrationConfig{} }, "MigrationPicker"},
		{"migration with a picker", func(c *Config) { c.Policy = invMigPicker{}; c.Migration = &MigrationConfig{} }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			err := cfg.Validate(nodes)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error mentioning %q", err, tc.want)
			}
			defer func() {
				if r, ok := recover().(error); !ok || r.Error() != err.Error() {
					t.Fatalf("NewController panicked with %v, want %v", r, err)
				}
			}()
			NewController(cl, cfg)
		})
	}
}
