mod queue;
