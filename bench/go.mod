module dcbench/bench

go 1.23

require dcbench v0.0.0

replace dcbench => ../
