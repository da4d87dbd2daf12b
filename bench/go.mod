module gamedb/bench

go 1.24

require gamedb v0.0.0

replace gamedb => ../
