// The benchmark is a module of its own so that it has its own build
// file; the module path sits under "tota/" so the internal packages it
// measures stay importable, and the replace points at the checkout.
module tota/bench

go 1.22

require tota v0.0.0

replace tota => ../
