package experiments

import (
	"strings"
	"sync"
	"testing"
)

// The migration study is expensive (four full workload runs); cache it
// across the tests in this file.
var (
	migrationOnce sync.Once
	migrationRows []MigrationRow
	migrationErr  error
)

func migrationStudy(t *testing.T) []MigrationRow {
	t.Helper()
	migrationOnce.Do(func() {
		migrationRows, migrationErr = Migration(MigrationJobs, nil, 1)
	})
	if migrationErr != nil {
		t.Fatal(migrationErr)
	}
	return migrationRows
}

func TestMigrationGolden(t *testing.T) {
	rows := migrationStudy(t)
	var b strings.Builder
	if err := WriteMigrationSummaryCSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "migration_summary.csv", []byte(b.String()))
}

func TestMigrationRejectsUnknownPattern(t *testing.T) {
	if _, err := Migration(4, []string{"sawtooth"}, 1); err == nil {
		t.Fatal("unknown arrival pattern must error before running")
	}
}

// TestMigrationPassPaysForItself pins the study's claim: on a sparse
// mixed-fleet workload the migration pass must execute real moves and
// save energy on at least one arrival shape, without stretching that
// shape's makespan beyond a small tolerance — the C/R cost and the
// consolidated jobs' slower pace are both charged, so the win has to
// survive them.
func TestMigrationPassPaysForItself(t *testing.T) {
	rows := migrationStudy(t)
	won := false
	for _, r := range rows {
		if r.On.Stats.Migrations == 0 {
			t.Errorf("%s: migration pass executed no moves — the study is vacuous", r.Pattern)
			continue
		}
		if r.On.Stats.Migrations > r.On.Stats.MigrationOrders {
			t.Errorf("%s: more migrations (%d) than orders (%d)",
				r.Pattern, r.On.Stats.Migrations, r.On.Stats.MigrationOrders)
		}
		if r.EnergyGainPct() > 0 && r.MakespanDeltaPct() <= 2.0 {
			won = true
		}
	}
	if !won {
		t.Fatalf("migration pass must save energy at <=2%% makespan cost on at least one shape:\n%s",
			FormatMigration(rows))
	}
}
