package core

import (
	"testing"
	"time"

	"evm/internal/radio"
)

func TestTransferValidation(t *testing.T) {
	bad := []Transfer{
		{Type: TransferDirectional, From: 1, To: 1},
		{Type: TransferHealth, From: 2, To: 2},
		{Type: TransferTemporal, From: 1, To: 2, MaxAge: 0},
		{Type: TransferCausal, From: 1, To: 2},
		{Type: TransferType(99), From: 1, To: 2},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: invalid transfer accepted: %+v", i, tr)
		}
	}
	good := []Transfer{
		{Type: TransferDisjoint, From: 1, To: 2},
		{Type: TransferDirectional, From: 1, To: 2},
		{Type: TransferBidirectional, From: 1, To: 2},
		{Type: TransferTemporal, From: 1, To: 2, MaxAge: time.Second},
		{Type: TransferCausal, From: 1, To: 2, After: "x"},
		{Type: TransferHealth, From: 1, To: 2},
	}
	for i, tr := range good {
		if err := tr.Validate(); err != nil {
			t.Errorf("case %d: valid transfer rejected: %v", i, err)
		}
	}
}

func TestDisjointConflict(t *testing.T) {
	_, err := NewTransferGraph([]Transfer{
		{Type: TransferDisjoint, From: 1, To: 2},
		{Type: TransferDirectional, From: 2, To: 1},
	})
	if err == nil {
		t.Fatal("disjoint + directional between same pair accepted")
	}
}

func TestAllowedSendDirectionality(t *testing.T) {
	g, err := NewTransferGraph([]Transfer{
		{Type: TransferDirectional, From: 1, To: 2},
		{Type: TransferBidirectional, From: 3, To: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !g.AllowedSend(1, 2) {
		t.Fatal("directional forward denied")
	}
	if g.AllowedSend(2, 1) {
		t.Fatal("directional reverse allowed")
	}
	if !g.AllowedSend(3, 4) || !g.AllowedSend(4, 3) {
		t.Fatal("bidirectional broken")
	}
	if g.AllowedSend(1, 4) {
		t.Fatal("unrelated pair allowed")
	}
}

func TestMaxAgeTightest(t *testing.T) {
	g, err := NewTransferGraph([]Transfer{
		{Type: TransferTemporal, From: 1, To: 2, MaxAge: 3 * time.Second},
		{Type: TransferTemporal, From: 1, To: 2, MaxAge: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.MaxAgeFor(1, 2); got != time.Second {
		t.Fatalf("MaxAgeFor = %v, want tightest 1s", got)
	}
	if got := g.MaxAgeFor(2, 1); got != 0 {
		t.Fatalf("unconstrained pair returned %v", got)
	}
}

func TestHealthPeers(t *testing.T) {
	g, err := NewTransferGraph([]Transfer{
		{Type: TransferHealth, From: 1, To: 2},
		{Type: TransferHealth, From: 3, To: 1},
		{Type: TransferHealth, From: 2, To: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	peers := g.HealthPeers(1)
	if len(peers) != 2 {
		t.Fatalf("peers of 1 = %v", peers)
	}
}

func TestDefaultTransfersDerivation(t *testing.T) {
	cfg := defaultCfg()
	cfg.Tasks[0].MaxInputAge = time.Second
	edges := cfg.DefaultTransfers()
	g, err := NewTransferGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	// Gateway -> candidate sensor flow.
	if !g.AllowedSend(gwID, ctrlA) || !g.AllowedSend(ctrlA, gwID) {
		t.Fatal("gateway transfers missing")
	}
	// Health assessment between the two candidates.
	peers := g.HealthPeers(ctrlA)
	found := false
	for _, p := range peers {
		if p == ctrlB {
			found = true
		}
	}
	if !found {
		t.Fatal("candidates lack a health-assessment edge")
	}
	if g.MaxAgeFor(gwID, ctrlA) != time.Second {
		t.Fatal("temporal constraint not derived")
	}
}

func TestVCConfigValidation(t *testing.T) {
	cfg := defaultCfg()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := defaultCfg()
	bad.Tasks[0].Candidates = []radio.NodeID{gwID}
	if err := bad.Validate(); err == nil {
		t.Fatal("controller on gateway accepted")
	}
	bad = defaultCfg()
	bad.Tasks = append(bad.Tasks, bad.Tasks[0])
	if err := bad.Validate(); err == nil {
		t.Fatal("duplicate task accepted")
	}
	bad = defaultCfg()
	bad.Tasks[0].DeviationWindow = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero deviation window accepted")
	}
	bad = defaultCfg()
	bad.Tasks[0].MakeLogic = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("missing logic factory accepted")
	}
	bad = defaultCfg()
	bad.Transfers = []Transfer{
		{Type: TransferDisjoint, From: ctrlA, To: ctrlB},
		{Type: TransferHealth, From: ctrlA, To: ctrlB},
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("disjoint pair with a health transfer accepted")
	}
	bad.Transfers = []Transfer{{Type: TransferTemporal, From: gwID, To: ctrlA}}
	if err := bad.Validate(); err == nil {
		t.Fatal("temporal transfer without MaxAge accepted")
	}
}

func TestInitialRoles(t *testing.T) {
	cfg := defaultCfg()
	if ro := cfg.InitialRole("lts", ctrlA); !ro.Holds || !ro.Active {
		t.Fatalf("ctrlA role = %+v", ro)
	}
	if ro := cfg.InitialRole("lts", ctrlB); !ro.Holds || ro.Active {
		t.Fatalf("ctrlB role = %+v", ro)
	}
	if ro := cfg.InitialRole("lts", spareID); ro.Holds {
		t.Fatalf("spare role = %+v", ro)
	}
	if ro := cfg.InitialRole("nope", ctrlA); ro.Holds {
		t.Fatalf("unknown task role = %+v", ro)
	}
}
