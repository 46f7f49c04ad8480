package dram

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/stats"
)

func TestReadWriteAccounting(t *testing.T) {
	d := New(energy.DRAM45())
	if lat := d.Read(); lat != 100 {
		t.Errorf("read latency = %d", lat)
	}
	d.Write()
	if d.Stats.Reads.Value() != 1 || d.Stats.Writes.Value() != 1 {
		t.Errorf("stats: %+v", d.Stats)
	}
	// 2 line transfers at 20 pJ/bit * 512 bits.
	if pj := stats.ChargePJ(d.Stats.TotalAccesses(), d.AccessPJ()); pj != 2*10240 {
		t.Errorf("energy = %v", pj)
	}
}

func TestMetadataAccounting(t *testing.T) {
	d := New(energy.DRAM45())
	if lat := d.MetadataRead(); lat != 100 {
		t.Errorf("metadata read latency = %d", lat)
	}
	d.MetadataWrite()
	if d.Stats.MetadataReads.Value() != 1 || d.Stats.MetadataWrites.Value() != 1 {
		t.Errorf("stats: %+v", d.Stats)
	}
	if d.Stats.TotalAccesses() != 2 {
		t.Errorf("TotalAccesses = %d", d.Stats.TotalAccesses())
	}
}

func TestAccessors(t *testing.T) {
	d := New(energy.DRAM45())
	if d.LatencyCycles() != 100 || d.AccessPJ() != 10240 {
		t.Error("accessors wrong")
	}
}

func TestValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad params did not panic")
		}
	}()
	New(energy.DRAMParams{})
}
