module dooc/bench

go 1.22

require dooc v0.0.0

replace dooc => ../
