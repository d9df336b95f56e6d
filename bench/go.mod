module encore/bench

go 1.24

require encore v0.0.0

replace encore => ../
