module spinnaker/benchmark

go 1.22

require spinnaker v0.0.0

replace spinnaker => ../
