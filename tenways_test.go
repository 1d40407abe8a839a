package tenways_test

import (
	"testing"
	"time"

	"tenways"
)

func TestMachinesPresets(t *testing.T) {
	ms := tenways.Machines()
	if len(ms) != 4 {
		t.Fatalf("presets = %d", len(ms))
	}
	if tenways.MachineByName("laptop2009") == nil {
		t.Fatal("laptop2009 missing")
	}
	if tenways.MachineByName("missing") != nil {
		t.Fatal("unknown preset should be nil")
	}
	if tenways.Laptop2009().Name != "laptop2009" ||
		tenways.Petascale2009().Name != "petascale2009" ||
		tenways.Exascale().Name != "exascale" {
		t.Fatal("preset constructors misnamed")
	}
}

func TestWastesCatalogue(t *testing.T) {
	ws := tenways.Wastes()
	if len(ws) != 10 {
		t.Fatalf("wastes = %d", len(ws))
	}
	out, err := tenways.RunWaste("W10", tenways.Petascale2009())
	if err != nil {
		t.Fatal(err)
	}
	if out.EnergyFactor() <= 1 {
		t.Fatalf("W10 energy factor = %g", out.EnergyFactor())
	}
	if _, err := tenways.RunWaste("W0", tenways.Laptop2009()); err == nil {
		t.Fatal("expected error for unknown waste")
	}
}

func TestLabThroughFacade(t *testing.T) {
	lab := tenways.NewLab()
	if len(lab.IDs()) != 40 {
		t.Fatalf("experiments = %d", len(lab.IDs()))
	}
	out, err := lab.Run("T2", tenways.Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Table == nil {
		t.Fatal("T2 should produce a table")
	}
}

func TestAuditDetectsImbalance(t *testing.T) {
	// A deliberately imbalanced static loop: all the work lands on the
	// first tenth of iterations.
	_, advice := tenways.Audit(4, func(p *tenways.Pool) {
		p.ForEachStatic(400, func(i int) {
			if i < 100 {
				time.Sleep(200 * time.Microsecond)
			}
		})
	})
	found := false
	for _, a := range advice {
		if a.ModeID == "W4" {
			found = true
		}
	}
	if !found {
		t.Fatalf("audit missed the imbalance: %+v", advice)
	}
}

func TestAuditCleanLoop(t *testing.T) {
	_, advice := tenways.Audit(4, func(p *tenways.Pool) {
		p.ForEachChunked(400, 8, func(i int) {
			time.Sleep(50 * time.Microsecond)
		})
	})
	for _, a := range advice {
		if a.ModeID == "W4" && a.Severity > 0.4 {
			t.Fatalf("balanced loop diagnosed with severe imbalance: %+v", a)
		}
	}
}

func TestSimulatedWorldThroughFacade(t *testing.T) {
	w := tenways.NewWorld(4, tenways.Petascale2009())
	w.Alloc("x", 8)
	end, err := w.Run(func(r *tenways.Rank) {
		c := tenways.NewComm(r)
		if r.ID() == 0 {
			r.Put(1, "x", 0, []float64{1, 2, 3})
		}
		c.BarrierDissemination()
	})
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	b := w.Breakdown(end)
	if b.Wall <= 0 {
		t.Fatal("breakdown has no wall time")
	}
	// A barrier-only run should attribute sync-wait somewhere.
	advice := tenways.Diagnose(b)
	_ = advice // presence depends on proportions; the call itself must work
}

func TestSortCampaignThroughFacade(t *testing.T) {
	res, err := tenways.SortCampaign(tenways.Petascale2009(), 4, 256, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Keys != 4*256 || res.Seconds <= 0 {
		t.Fatalf("sort result: %+v", res)
	}
}

func TestStencilCampaignThroughFacade(t *testing.T) {
	res, err := tenways.StencilCampaign(tenways.Laptop2009(), 4, 256, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsPerJoule() <= 0 {
		t.Fatalf("stencil result: %+v", res)
	}
}

func TestBFSCampaignThroughFacade(t *testing.T) {
	g := tenways.RMAT(5, 8, 8)
	res, err := tenways.BFSCampaign(tenways.Petascale2009(), 4, g, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.TEPS() <= 0 || res.Levels == 0 {
		t.Fatalf("bfs result: %+v", res)
	}
}
