module taskgrain/bench

go 1.22

require taskgrain v0.0.0

replace taskgrain => ../
