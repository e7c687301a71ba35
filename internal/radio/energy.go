package radio

import "time"

// EnergyModel holds per-state current draw. Defaults follow the FireFly
// platform (ATmega1281 + CC2420) numbers the paper builds on.
type EnergyModel struct {
	TXCurrentMA    float64 // radio transmitting
	RXCurrentMA    float64 // radio receiving / listening
	IdleCurrentMA  float64 // MCU active, radio off
	SleepCurrentMA float64 // deep sleep
	VoltageV       float64
}

// DefaultEnergyModel returns CC2420/FireFly-like current draws.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		TXCurrentMA:    17.4,
		RXCurrentMA:    19.7,
		IdleCurrentMA:  6.0,
		SleepCurrentMA: 0.021,
		VoltageV:       3.0,
	}
}

// Current returns the draw for a radio state in mA.
func (m EnergyModel) Current(s State) float64 {
	switch s {
	case StateTX:
		return m.TXCurrentMA
	case StateRX:
		return m.RXCurrentMA
	case StateIdle:
		return m.IdleCurrentMA
	case StateSleep:
		return m.SleepCurrentMA
	default:
		return 0
	}
}

// Battery accounts charge consumption over virtual time. It keeps the
// exact time spent in each power state and prices it with the energy
// model of the radio it is attached to only when read, so the per-slot
// path does integer additions and the float rounding happens once.
type Battery struct {
	CapacityMAH float64
	// model prices the state times; Medium.Attach binds the radio's.
	model EnergyModel
	// spent is the settled time in each power state, indexed by State.
	spent [StateTX + 1]time.Duration
	// instantMAS is charge removed by ConsumeFraction, in milliamp-seconds.
	instantMAS float64
}

// NewBattery returns a battery with the given capacity in mAh. Two AA
// cells (~2600 mAh) are the FireFly reference supply.
func NewBattery(capacityMAH float64) *Battery {
	return &Battery{CapacityMAH: capacityMAH}
}

// spend charges dur of virtual time in state s.
func (b *Battery) spend(s State, dur time.Duration) {
	if s >= StateSleep && s <= StateTX {
		b.spent[s] += dur
	}
}

// ConsumeFraction instantly consumes the given fraction of the total
// capacity (fault injection: sudden energy loss from a shorted cell or a
// stuck transmitter). Negative fractions are ignored; draining past
// empty leaves the battery depleted.
func (b *Battery) ConsumeFraction(f float64) {
	if f <= 0 {
		return
	}
	b.instantMAS += f * b.CapacityMAH * 3600
}

// consumedMAS returns the charge consumed so far in milliamp-seconds:
// each state's current times its settled time, plus instant drains.
func (b *Battery) consumedMAS() float64 {
	mas := 0.0
	for s := StateSleep; s <= StateTX; s++ {
		mas += b.model.Current(s) * b.spent[s].Seconds()
	}
	return mas + b.instantMAS
}

// ConsumedMAH returns the total charge consumed as of the attached
// radio's last state change.
func (b *Battery) ConsumedMAH() float64 { return b.consumedMAS() / 3600 }

// RemainingFraction returns remaining charge in [0,1] as of the attached
// radio's last state change.
func (b *Battery) RemainingFraction() float64 {
	if b.CapacityMAH <= 0 {
		return 0
	}
	f := 1 - b.ConsumedMAH()/b.CapacityMAH
	if f < 0 {
		return 0
	}
	return f
}

// Depleted reports whether the battery is exhausted.
func (b *Battery) Depleted() bool { return b.RemainingFraction() <= 0 }

// LifetimeAt extrapolates total battery lifetime assuming the average
// current observed over elapsed continues indefinitely. Returns 0 if no
// charge has been consumed yet.
func (b *Battery) LifetimeAt(elapsed time.Duration) time.Duration {
	mas := b.consumedMAS()
	if mas <= 0 || elapsed <= 0 {
		return 0
	}
	avgMA := mas / elapsed.Seconds()
	hours := b.CapacityMAH / avgMA
	return time.Duration(hours * float64(time.Hour))
}
